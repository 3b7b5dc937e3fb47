import numpy as np
import pytest

from uasnav.errors import PolicyFormatError
from uasnav.grid import Action, LandmarkId, manhattan, random_start
from uasnav.policy import (
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
        del lines[10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PolicyFormatError, match="incomplete"):
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
