import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uasnav.errors import PolicyFormatError
from uasnav.grid import Action, LandmarkId, manhattan, random_start, step
from uasnav.policy import (
    PolicyTable,
    TrainConfig,
    bellman_residual,
    enumerated_mean_manhattan,
    evaluate,
    greedy_policy,
    load_policy,
    optimal_expected_reward,
    oracle_agreement,
    rollout,
    save_policy,
    train,
    value_iteration,
)

PHASE1_DIGEST = "73efd014e1738904836b7f03589fd19f9e5cfdb18a1230b1fab795ba2050886e"


def _reference_train(grid, rewards, goal, cfg):
    """Q-learning stepping through ``grid.step``: the reference for the
    table-driven ``train``, with the same draws in the same order."""
    rng = np.random.default_rng(cfg.rng_seed)
    q = np.zeros((grid.n_landmarks, len(Action)))
    curve = []
    for episode in range(cfg.episodes):
        epsilon = cfg.epsilon_at(episode)
        state = random_start(grid, goal, rng)
        total, steps = 0.0, 0
        while steps < cfg.max_episode_steps:
            s = grid.flat_index(state)
            if rng.random() < epsilon:
                action = Action(int(rng.integers(len(Action))))
            else:
                action = Action(int(np.argmax(q[s])))
            t = step(grid, rewards, state, action, goal)
            target = t.reward if t.terminal else t.reward + cfg.discount * q[grid.flat_index(t.next_state)].max()
            q[s, action] += cfg.learning_rate * (target - q[s, action])
            total += t.reward
            steps += 1
            state = t.next_state
            if t.terminal:
                break
        curve.append((episode, total, steps, epsilon))
    q[grid.flat_index(goal), :] = 0.0
    return q, curve


class TestValueIteration:
    def test_adjacent_to_goal_value(self, oracle_q, grid, goal):
        # terminal transition: no bootstrap, value is exactly the goal reward
        row = oracle_q.values[grid.flat_index(LandmarkId(5, 4))]
        assert row[Action.FORWARD] == pytest.approx(0.1, abs=1e-12)

    def test_two_step_value(self, oracle_q, grid):
        # hand Bellman backup: -0.0001 + 0.99 * 0.1
        row = oracle_q.values[grid.flat_index(LandmarkId(5, 3))]
        assert row[Action.FORWARD] == pytest.approx(0.0989, abs=1e-12)

    def test_collision_self_loop_backup(self, oracle_q, grid, rewards):
        # Q(s, into-wall) = collision + gamma * max_a Q(s, a)
        s = grid.flat_index(LandmarkId(0, 0))
        expected = rewards.collision_penalty + oracle_q.discount * oracle_q.values[s].max()
        assert oracle_q.values[s][Action.LEFT] == pytest.approx(expected, abs=1e-12)

    def test_bellman_residual_within_tol(self, oracle_q, grid, rewards):
        assert bellman_residual(oracle_q, grid, rewards) <= 1e-10

    def test_goal_row_zero(self, oracle_q, grid, goal):
        assert np.all(oracle_q.values[grid.flat_index(goal)] == 0.0)

    def test_greedy_rollouts_are_shortest_paths(self, grid, rewards, goal, optimal_policy):
        for start in grid.all_landmarks():
            if start == goal:
                continue
            log = rollout(grid, rewards, optimal_policy, start)
            assert log.reached_goal
            assert log.steps == manhattan(start, goal)

    def test_optimal_episode_reward_formula(self, grid, rewards, goal, optimal_policy):
        for start in (LandmarkId(0, 0), LandmarkId(9, 2), LandmarkId(4, 5)):
            log = rollout(grid, rewards, optimal_policy, start)
            d = manhattan(start, goal)
            assert log.cumulative_reward == pytest.approx(
                0.1 - 0.0001 * (d - 1), abs=1e-12
            )

    def test_values_increase_toward_goal(self, oracle_q, grid, goal):
        v = oracle_q.values.max(axis=1)
        for lid in grid.all_landmarks():
            if lid == goal:
                continue
            for nid in grid.all_landmarks():
                if nid == goal:
                    continue
                if manhattan(nid, goal) < manhattan(lid, goal):
                    assert v[grid.flat_index(nid)] > v[grid.flat_index(lid)]

    def test_bad_tolerance(self, grid, rewards, goal):
        with pytest.raises(ValueError):
            value_iteration(grid, rewards, goal, tol=0.0)


class TestTraining:
    def test_zero_episodes(self, grid, rewards, goal):
        q, curve = train(grid, rewards, goal, TrainConfig(episodes=0))
        assert np.all(q.values == 0.0)
        assert curve.points == []

    def test_deterministic_given_seed(self, grid, rewards, goal):
        cfg = TrainConfig(episodes=120, rng_seed=5)
        q1, c1 = train(grid, rewards, goal, cfg)
        q2, c2 = train(grid, rewards, goal, cfg)
        assert np.array_equal(q1.values, q2.values)
        assert c1.points == c2.points

    def test_reference_config_matches_oracle_everywhere(self, grid, rewards, goal, oracle_q):
        q, _ = train(grid, rewards, goal, TrainConfig())
        assert oracle_agreement(greedy_policy(q, grid), oracle_q, grid) == 1.0

    def test_converges_within_200_episodes(self, grid, rewards, goal):
        _, curve = train(grid, rewards, goal, TrainConfig(episodes=250, rng_seed=3))
        target = 0.95 * optimal_expected_reward(grid, rewards, goal)
        ma = curve.moving_average(20)
        hits = np.flatnonzero(~np.isnan(ma) & (ma >= target))
        assert hits.size > 0 and curve.points[hits[0]].episode <= 200

    def test_epsilon_schedule(self):
        cfg = TrainConfig()
        assert cfg.epsilon_at(0) == 1.0
        assert cfg.epsilon_at(150) == pytest.approx(0.05)
        assert cfg.epsilon_at(1000) == 0.05

    @pytest.mark.parametrize("goal_cell, seed, episodes", [((5, 5), 17, 400), ((0, 9), 4, 300), ((7, 2), 11, 777)])
    def test_matches_step_reference(self, grid, rewards, goal_cell, seed, episodes):
        goal = LandmarkId(*goal_cell)
        cfg = TrainConfig(episodes=episodes, rng_seed=seed, max_episode_steps=60)
        q, curve = train(grid, rewards, goal, cfg)
        ref_q, ref_curve = _reference_train(grid, rewards, goal, cfg)
        assert q.values.tobytes() == ref_q.tobytes()
        assert [(p.episode, p.reward, p.steps, p.epsilon) for p in curve.points] == ref_curve

    def test_reference_run_matches_pinned_digest(self, grid, rewards, goal):
        # Q-table bytes, every curve row and the seed-23 evaluation rows of
        # the reference run, at full float precision; a change of any Phase-1
        # number must re-pin this digest on purpose
        q, curve = train(grid, rewards, goal, TrainConfig())
        summary = evaluate(grid, rewards, greedy_policy(q, grid), episodes=100, rng_seed=23)
        h = hashlib.sha256(q.values.tobytes())
        for p in curve.points:
            h.update(f"{p.episode},{float(p.reward).hex()},{p.steps},{float(p.epsilon).hex()}\n".encode())
        for e in summary.episodes:
            h.update(
                f"{e.start.col},{e.start.row},{e.steps},{e.cumulative_reward.hex()},"
                f"{int(e.reached_goal)}\n".encode()
            )
        assert h.hexdigest() == PHASE1_DIGEST

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(discount=1.0)
        with pytest.raises(ValueError):
            TrainConfig(epsilon_start=1.5)


class TestEvaluate:
    def test_adjacent_start(self, grid, rewards, goal, optimal_policy):
        log = rollout(grid, rewards, optimal_policy, LandmarkId(5, 4))
        assert log.steps == 1
        assert log.cumulative_reward == pytest.approx(0.1)

    def test_mean_steps_equals_drawn_manhattan_mean(self, grid, rewards, goal, optimal_policy):
        seed = 23
        summary = evaluate(grid, rewards, optimal_policy, episodes=100, rng_seed=seed)
        rng = np.random.default_rng(seed)
        drawn = [random_start(grid, goal, rng) for _ in range(100)]
        assert summary.mean_steps == np.mean([manhattan(s, goal) for s in drawn])
        assert summary.success_rate == 1.0

    def test_large_eval_approaches_enumerated_mean(self, grid, rewards, goal, optimal_policy):
        summary = evaluate(grid, rewards, optimal_policy, episodes=4000, rng_seed=9)
        assert summary.mean_steps == pytest.approx(
            enumerated_mean_manhattan(grid, goal), rel=0.05
        )

    def test_cyclic_policy_truncates_and_fails(self, grid, rewards, goal, optimal_policy):
        cyclic = {lid: Action.FORWARD for lid in optimal_policy.best_action}
        cyclic[LandmarkId(5, 9)] = Action.BACKWARD  # bounce on the top edge column
        bad = type(optimal_policy)(best_action=cyclic, goal=goal, cols=10, rows=10)
        summary = evaluate(grid, rewards, bad, episodes=40, rng_seed=1, max_episode_steps=80)
        assert summary.success_rate < 1.0
        failed = [e for e in summary.episodes if not e.reached_goal]
        assert failed and all(e.steps == 80 for e in failed)

    def test_episodes_are_the_rollouts(self, grid, rewards, goal, optimal_policy):
        summary = evaluate(grid, rewards, optimal_policy, episodes=30, rng_seed=4)
        rng = np.random.default_rng(4)
        for log in summary.episodes:
            assert log == rollout(grid, rewards, optimal_policy, random_start(grid, goal, rng))

    def test_zero_episodes_rejected(self, grid, rewards, optimal_policy):
        with pytest.raises(ValueError, match="at least one episode"):
            evaluate(grid, rewards, optimal_policy, episodes=0, rng_seed=1)

    def test_enumerated_mean_value(self, grid, goal):
        # sum of manhattan distances to the center cell is 500 over 99 starts
        assert enumerated_mean_manhattan(grid, goal) == pytest.approx(500.0 / 99.0)

    def test_optimal_expected_reward_closed_form(self, grid, rewards, goal):
        d_mean = enumerated_mean_manhattan(grid, goal)
        assert optimal_expected_reward(grid, rewards, goal) == pytest.approx(
            0.1 - 0.0001 * (d_mean - 1.0)
        )


class TestPolicyFile:
    def test_round_trip(self, optimal_policy, tmp_path):
        path = tmp_path / "policy.txt"
        save_policy(optimal_policy, path)
        loaded = load_policy(path)
        assert loaded == optimal_policy

    def test_header_format(self, optimal_policy, tmp_path):
        path = tmp_path / "policy.txt"
        save_policy(optimal_policy, path)
        header = path.read_text().splitlines()[0]
        assert header == "uasnav-policy v1; goal=5,5; cols=10; rows=10"

    def test_unknown_action_token(self, optimal_policy, tmp_path):
        path = tmp_path / "policy.txt"
        save_policy(optimal_policy, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",sideways"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PolicyFormatError, match="line 4"):
            load_policy(path)

    def test_missing_landmark_row(self, optimal_policy, tmp_path):
        path = tmp_path / "policy.txt"
        save_policy(optimal_policy, path)
        lines = path.read_text().splitlines()
        del lines[10]  # (9,0)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PolicyFormatError, match=r"incomplete policy: 98/99 landmarks, missing \(9,0\)$"):
            load_policy(path)

    def test_huge_header_is_incomplete_without_walking_the_grid(self, tmp_path):
        path = tmp_path / "policy.txt"
        path.write_text("uasnav-policy v1; goal=0,0; cols=100000; rows=100000\n1,0,right\n")
        with pytest.raises(
            PolicyFormatError,
            match=r"incomplete policy: 1/9999999999 landmarks, missing \(2,0\), \(3,0\), \(4,0\), \(5,0\), \(6,0\)$",
        ):
            load_policy(path)

    def test_version_mismatch(self, optimal_policy, tmp_path):
        path = tmp_path / "policy.txt"
        save_policy(optimal_policy, path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("v1", "v9")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PolicyFormatError, match="version"):
            load_policy(path)

    def test_not_a_policy_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\nworld\n")
        with pytest.raises(PolicyFormatError):
            load_policy(path)

    @pytest.mark.parametrize("goal_field", ["12,5", "5,10", "-1,5"])
    def test_goal_outside_grid_rejected(self, optimal_policy, tmp_path, goal_field):
        # cols*rows-1 entries: (0,0) is dropped so that only the goal check
        # can reject the file
        path = tmp_path / "policy.txt"
        save_policy(optimal_policy, path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace("goal=5,5", f"goal={goal_field}")
        lines = [ln for ln in lines if not ln.startswith("0,0,")] + ["5,5,forward"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PolicyFormatError, match="line 1: goal"):
            load_policy(path)

    def test_goal_entry_rejected(self, optimal_policy, tmp_path):
        # an entry at the goal in place of a missing cell keeps the count right
        path = tmp_path / "policy.txt"
        save_policy(optimal_policy, path)
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("0,0,")]
        path.write_text("\n".join(lines + ["5,5,forward"]) + "\n")
        with pytest.raises(PolicyFormatError, match=f"line {len(lines) + 1}: entry for the goal"):
            load_policy(path)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), cols=st.integers(1, 14), rows=st.integers(1, 14))
    def test_round_trip_property(self, tmp_path_factory, data, cols, rows):
        goal = LandmarkId(data.draw(st.integers(0, cols - 1)), data.draw(st.integers(0, rows - 1)))
        cells = [lid for r in range(rows) for c in range(cols) if (lid := LandmarkId(c, r)) != goal]
        actions = data.draw(st.lists(st.sampled_from(list(Action)), min_size=len(cells), max_size=len(cells)))
        policy = PolicyTable(best_action=dict(zip(cells, actions)), goal=goal, cols=cols, rows=rows)
        path = tmp_path_factory.mktemp("policy") / "policy.txt"
        save_policy(policy, path)
        assert load_policy(path) == policy

    def test_small_grid_round_trip(self, tmp_path):
        best = {LandmarkId(c, r): Action.RIGHT for r in range(2) for c in range(3) if (c, r) != (2, 1)}
        policy = PolicyTable(best_action=best, goal=LandmarkId(2, 1), cols=3, rows=2)
        path = tmp_path / "policy.txt"
        save_policy(policy, path)
        assert load_policy(path) == policy
