import numpy as np
import pytest

from uasnav.errors import BoundsError, InvalidStateError
from uasnav.grid import (
    Action,
    EpisodeLog,
    GridSpec,
    LandmarkId,
    RewardSpec,
    landmark_position,
    manhattan,
    neighbors,
    random_start,
    step,
    write_episode_logs,
)


class TestGeometry:
    def test_origin_landmark(self, grid):
        assert np.allclose(landmark_position(grid, LandmarkId(0, 0)), [0.0, 0.0])

    def test_unit_landmark_spacing(self, grid):
        assert np.allclose(landmark_position(grid, LandmarkId(1, 1)), [40.0, 30.0])

    def test_far_corner(self, grid):
        # 9 * 40 and 9 * 30
        assert np.allclose(landmark_position(grid, LandmarkId(9, 9)), [360.0, 270.0])

    def test_extent(self, grid):
        assert grid.extent == (360.0, 270.0)

    def test_out_of_bounds_rejected(self, grid):
        with pytest.raises(BoundsError):
            landmark_position(grid, LandmarkId(10, 0))
        with pytest.raises(BoundsError):
            LandmarkId(-1, 2)

    def test_flat_index_bijection(self, grid):
        seen = set()
        for lid in grid.all_landmarks():
            idx = grid.flat_index(lid)
            assert idx == lid.row * grid.cols + lid.col
            assert grid.from_flat(idx) == lid
            seen.add(idx)
        assert seen == set(range(100))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(cols=1)
        with pytest.raises(ValueError):
            GridSpec(spacing_x=0.0)


class TestStep:
    def test_collision_at_boundary(self, grid, rewards, goal):
        t = step(grid, rewards, LandmarkId(0, 0), Action.LEFT, goal)
        assert t.next_state == LandmarkId(0, 0)
        assert t.reward == rewards.collision_penalty
        assert not t.terminal

    def test_goal_transition(self, grid, rewards, goal):
        t = step(grid, rewards, LandmarkId(5, 4), Action.FORWARD, goal)
        assert t.next_state == goal
        assert t.reward == rewards.goal_reward
        assert t.terminal

    def test_plain_move(self, grid, rewards, goal):
        t = step(grid, rewards, LandmarkId(2, 2), Action.RIGHT, goal)
        assert t.next_state == LandmarkId(3, 2)
        assert t.reward == rewards.step_penalty
        assert not t.terminal

    def test_step_at_goal_rejected(self, grid, rewards, goal):
        with pytest.raises(InvalidStateError):
            step(grid, rewards, goal, Action.FORWARD, goal)

    def test_determinism_closure_and_reward_partition(self, grid, rewards, goal):
        allowed = {rewards.goal_reward, rewards.collision_penalty, rewards.step_penalty}
        for lid in grid.all_landmarks():
            if lid == goal:
                continue
            for action in Action:
                a = step(grid, rewards, lid, action, goal)
                b = step(grid, rewards, lid, action, goal)
                assert a == b
                assert grid.contains(a.next_state.col, a.next_state.row)
                assert a.reward in allowed
                if a.reward == rewards.collision_penalty:
                    assert a.next_state == lid  # collisions never move
                else:
                    assert manhattan(a.next_state, lid) == 1

    def test_rewards_validation(self):
        with pytest.raises(ValueError):
            RewardSpec(goal_reward=-1.0)
        with pytest.raises(ValueError):
            RewardSpec(step_penalty=-0.01)  # more severe than collision


class TestNeighbors:
    def test_corner(self, grid):
        n = neighbors(grid, LandmarkId(0, 0))
        assert n[Action.FORWARD] == LandmarkId(0, 1)
        assert n[Action.RIGHT] == LandmarkId(1, 0)
        assert n[Action.BACKWARD] is None
        assert n[Action.LEFT] is None

    def test_interior(self, grid):
        n = neighbors(grid, LandmarkId(5, 5))
        assert all(v is not None for v in n.values())

    def test_other_corner(self, grid):
        n = neighbors(grid, LandmarkId(9, 0))
        assert n[Action.FORWARD] == LandmarkId(9, 1)
        assert n[Action.LEFT] == LandmarkId(8, 0)
        assert n[Action.RIGHT] is None
        assert n[Action.BACKWARD] is None


class TestRandomStart:
    def test_never_goal(self, grid, goal):
        rng = np.random.default_rng(1)
        assert all(random_start(grid, goal, rng) != goal for _ in range(500))

    def test_deterministic_given_seed(self, grid, goal):
        a, b = np.random.default_rng(42), np.random.default_rng(42)
        assert [random_start(grid, goal, a) for _ in range(20)] == [random_start(grid, goal, b) for _ in range(20)]

    def test_uniform_over_non_goal_cells(self, grid, goal):
        # binomial std per cell: sqrt(p(1-p)/n) with p = 1/99
        n = 10_000
        p = 1.0 / 99.0
        sigma = (p * (1 - p) / n) ** 0.5
        rng = np.random.default_rng(7)
        counts = {}
        for _ in range(n):
            s = random_start(grid, goal, rng)
            counts[s] = counts.get(s, 0) + 1
        assert goal not in counts
        assert len(counts) == 99
        for c in counts.values():
            assert abs(c / n - p) <= 3 * sigma


class TestEpisodeLog:
    def _make_log(self, grid, rewards, goal):
        log = EpisodeLog(start=LandmarkId(5, 3))
        state = log.start
        for action in (Action.FORWARD, Action.FORWARD):
            t = step(grid, rewards, state, action, goal)
            log.transitions.append(t)
            state = t.next_state
        return log

    def test_cumulative_reward_and_steps(self, grid, rewards, goal):
        log = self._make_log(grid, rewards, goal)
        assert log.steps == 2
        assert log.reached_goal
        assert log.cumulative_reward == pytest.approx(
            rewards.step_penalty + rewards.goal_reward
        )

    def test_csv_export(self, grid, rewards, goal, tmp_path):
        log = self._make_log(grid, rewards, goal)
        path = tmp_path / "episodes.csv"
        write_episode_logs([log], path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "episode,step,state_col,state_row,action,reward,next_col,next_row,terminal"
        assert len(lines) == 1 + log.steps
        assert lines[1].startswith("0,0,5,3,forward,")
        assert lines[2].endswith(",1")  # terminal flag on the goal transition
