import hashlib
import math

import numpy as np
import pytest

from uasnav import matching, navigator
from uasnav.errors import InvalidStateError, PolicyInconsistencyError
from uasnav.grid import Action, LandmarkId, landmark_position, manhattan
from uasnav.imagery import PerturbationSpec
from uasnav.matching import AffineTransform, MatchParams, MatchResult
from uasnav.navigator import (
    MissionConfig,
    MissionOutcome,
    closest_approach,
    expected_landmark,
    export_trajectory,
    read_mission_poses,
    run_mission,
    write_mission_csv,
)
from uasnav.policy import PolicyTable, greedy_policy, value_iteration

# SHA-256 of the attempted ticks of the reference mission flown in
# test_mission_is_deterministic. A change that alters perception numbers
# on purpose updates this constant and says why.
GOLDEN_MISSION_DIGEST = "3eb900febc1ee2c53f7c1099f55d017577ae5972e331f3091d719308de8d53fa"
GOLDEN_START = LandmarkId(5, 3)
GOLDEN_PERTURBATION = PerturbationSpec(
    gain=1.1, bias=-8.0, noise_sigma=3.0, rotation_jitter=0.05, translation_jitter=2.0, rng_seed=31,
)


def _attempt_digest(log) -> str:
    rows = []
    for r in log.records:
        if not r.attempted:
            continue
        cd = "" if r.center_distance_m is None else f"{r.center_distance_m:.6f}"
        arrival = "" if r.arrival is None else f"{r.arrival.col},{r.arrival.row}"
        rows.append(f"{r.tick}|{r.n_matches}|{r.inliers}|{cd}|{arrival}|{r.confirmed}")
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


class TestExpectedLandmark:
    def test_lattice_arithmetic(self, grid):
        assert expected_landmark(grid, LandmarkId(2, 2), Action.RIGHT) == LandmarkId(3, 2)
        assert expected_landmark(grid, LandmarkId(5, 4), Action.FORWARD) == LandmarkId(5, 5)

    def test_wall_command_is_policy_inconsistency(self, grid):
        with pytest.raises(PolicyInconsistencyError):
            expected_landmark(grid, LandmarkId(0, 0), Action.LEFT)


class TestClosestApproach:
    FLOOR = 2.0  # one sampling interval at the default kinematics
    MIN_INLIERS = 30

    def _result(self, inliers, cd, with_affine=True):
        return MatchResult(
            target=None,
            pairs=np.zeros((0, 2), dtype=int),
            inliers=inliers,
            affine=AffineTransform.identity() if with_affine else None,
            center_distance_m=cd if with_affine else None,
        )

    def _arrives(self, res, best_cd=math.inf):
        return closest_approach(res, best_cd, self.FLOOR, self.MIN_INLIERS)

    def test_solid_match_at_or_below_floor_arrives(self):
        assert self._arrives(self._result(150, self.FLOOR))
        assert self._arrives(self._result(150, 0.5))

    def test_gate_passing_match_above_floor_only_records_distance(self):
        res = self._result(150, 4.0)
        assert matching.arrival_check(res, 5.0, self.MIN_INLIERS)
        assert not self._arrives(res)
        assert not self._arrives(self._result(150, 3.0), best_cd=4.0)  # still closing in

    def test_distance_that_stopped_shrinking_arrives(self):
        assert self._arrives(self._result(150, 4.0), best_cd=4.0)
        # beyond the 5 m gate threshold: the closest approach was the last check
        assert self._arrives(self._result(150, 7.5), best_cd=4.0)

    def test_weak_match_never_arrives(self):
        assert not self._arrives(self._result(150, 0.0, with_affine=False), best_cd=1.0)
        assert not self._arrives(self._result(self.MIN_INLIERS - 1, 0.0), best_cd=1.0)
        assert not self._arrives(self._result(self.MIN_INLIERS - 1, 9.0), best_cd=1.0)


class TestMissionConfig:
    def test_start_equals_goal_rejected(self, optimal_policy, goal):
        with pytest.raises(InvalidStateError):
            MissionConfig(start=goal, goal=goal, policy=optimal_policy)

    def test_bad_kinematics_rejected(self, optimal_policy, goal):
        with pytest.raises(ValueError):
            MissionConfig(start=LandmarkId(0, 0), goal=goal, policy=optimal_policy, control_step_m=0.0)
        with pytest.raises(ValueError):
            MissionConfig(start=LandmarkId(0, 0), goal=goal, policy=optimal_policy, observation_period=0)

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_non_finite_control_step_rejected(self, optimal_policy, goal, step):
        with pytest.raises(ValueError, match="control step"):
            MissionConfig(start=LandmarkId(0, 0), goal=goal, policy=optimal_policy, control_step_m=step)


class TestMission:
    def test_adjacent_start_single_leg(self, world_and_reg, grid, optimal_policy, goal, library):
        world, reg = world_and_reg
        cfg = MissionConfig(start=LandmarkId(5, 4), goal=goal, policy=optimal_policy)
        log = run_mission(world, reg, grid, cfg, library=library)
        assert log.outcome == MissionOutcome.REACHED_GOAL
        assert len(log.arrivals) == 1
        # one leg of one row spacing, up to one sampling interval of latency
        sampling = cfg.observation_period * cfg.control_step_m
        assert abs(log.distance_flown_m - grid.spacing_y) <= 2 * sampling

    def test_arrival_reuses_target_match(self, world_and_reg, grid, optimal_policy, goal, library, monkeypatch):
        # one descriptor match per attempt, plus one per neighbor of the
        # departure cell other than the target at the arrival
        world, reg = world_and_reg
        calls = []
        original = matching.match_descriptors

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(matching, "match_descriptors", counting)
        cfg = MissionConfig(start=LandmarkId(5, 4), goal=goal, policy=optimal_policy)
        log = run_mission(world, reg, grid, cfg, library=library)
        assert log.outcome == MissionOutcome.REACHED_GOAL
        assert len(log.arrivals) == 1
        assert len(calls) == sum(r.attempted for r in log.records) + 3

    def test_one_render_per_attempt(self, world_and_reg, grid, optimal_policy, goal, library, monkeypatch):
        # benchmark harnesses time an attempt from its render call, so each
        # attempted tick renders exactly once and nothing else renders
        world, reg = world_and_reg
        calls = []
        original = navigator.render_observation

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(navigator, "render_observation", counting)
        cfg = MissionConfig(start=GOLDEN_START, goal=goal, policy=optimal_policy, perturbation=GOLDEN_PERTURBATION)
        log = run_mission(world, reg, grid, cfg, library=library)
        assert log.outcome == MissionOutcome.REACHED_GOAL
        assert len(log.arrivals) == 2
        assert len(calls) == sum(r.attempted for r in log.records)

    def test_arrival_fits_no_rival_that_cannot_win(
        self, world_and_reg, grid, optimal_policy, goal, library, monkeypatch
    ):
        # one RANSAC fit per attempt: at the arrival every other neighbor
        # has fewer mutual matches than the target has inliers
        world, reg = world_and_reg
        calls = []
        original = matching.estimate_affine_ransac

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(matching, "estimate_affine_ransac", counting)
        cfg = MissionConfig(start=LandmarkId(5, 4), goal=goal, policy=optimal_policy)
        log = run_mission(world, reg, grid, cfg, library=library)
        assert log.outcome == MissionOutcome.REACHED_GOAL
        assert len(log.arrivals) == 1 and log.arrivals[0].confirmed
        assert len(calls) == sum(r.attempted for r in log.records)

    def test_arrival_ranking_uses_the_attempt_seed(
        self, world_and_reg, grid, optimal_policy, goal, library, monkeypatch
    ):
        # a rival is fitted with the RANSAC seed of the attempt whose match
        # of the target it is ranked against
        world, reg = world_and_reg
        match_seeds, rank_seeds = [], []
        match_images, target_ranks_first = navigator.match_images, navigator.target_ranks_first

        def recording_match(obs, train, params, *args, **kwargs):
            match_seeds.append(params.rng_seed)
            return match_images(obs, train, params, *args, **kwargs)

        def recording_rank(obs, res, candidates, lookup, params, gsd):
            rank_seeds.append(params.rng_seed)
            return target_ranks_first(obs, res, candidates, lookup, params, gsd)

        monkeypatch.setattr(navigator, "match_images", recording_match)
        monkeypatch.setattr(navigator, "target_ranks_first", recording_rank)
        cfg = MissionConfig(start=LandmarkId(5, 4), goal=goal, policy=optimal_policy)
        log = run_mission(world, reg, grid, cfg, library=library)
        assert log.outcome == MissionOutcome.REACHED_GOAL
        assert rank_seeds == match_seeds[-1:]
        assert rank_seeds[0] != cfg.match_params.rng_seed

    def test_arrival_count_equals_manhattan(self, world_and_reg, grid, optimal_policy, goal, library):
        world, reg = world_and_reg
        start = LandmarkId(2, 3)
        cfg = MissionConfig(start=start, goal=goal, policy=optimal_policy)
        log = run_mission(world, reg, grid, cfg, library=library)
        assert log.outcome == MissionOutcome.REACHED_GOAL
        assert len(log.arrivals) == manhattan(start, goal)
        assert all(ev.confirmed for ev in log.arrivals)
        assert log.arrivals[-1].arrival == goal

    def test_distance_flown_bound(self, world_and_reg, grid, optimal_policy, goal, library):
        world, reg = world_and_reg
        start = LandmarkId(3, 5)
        cfg = MissionConfig(start=start, goal=goal, policy=optimal_policy)
        log = run_mission(world, reg, grid, cfg, library=library)
        commanded = (
            abs(start.col - goal.col) * grid.spacing_x + abs(start.row - goal.row) * grid.spacing_y
        )
        assert log.distance_flown_m <= 1.1 * commanded

    def test_arrival_poses_near_landmarks(self, world_and_reg, grid, optimal_policy, goal, library):
        # an identity mission and the golden perturbed one
        world, reg = world_and_reg
        for start, perturb in ((LandmarkId(4, 3), PerturbationSpec()), (GOLDEN_START, GOLDEN_PERTURBATION)):
            cfg = MissionConfig(start=start, goal=goal, policy=optimal_policy, perturbation=perturb)
            log = run_mission(world, reg, grid, cfg, library=library)
            assert log.outcome == MissionOutcome.REACHED_GOAL
            bound = cfg.match_params.distance_threshold_m + cfg.control_step_m
            for rec in log.arrivals:
                pos = landmark_position(grid, rec.arrival)
                assert np.hypot(rec.x - pos[0], rec.y - pos[1]) <= bound

    def test_mission_is_deterministic(self, world_and_reg, grid, optimal_policy, goal, library, tmp_path):
        world, reg = world_and_reg
        cfg = MissionConfig(start=GOLDEN_START, goal=goal, policy=optimal_policy, perturbation=GOLDEN_PERTURBATION)
        log1 = run_mission(world, reg, grid, cfg, library=library)
        log2 = run_mission(world, reg, grid, cfg, library=library)
        p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        write_mission_csv(log1, p1)
        write_mission_csv(log2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert _attempt_digest(log1) == GOLDEN_MISSION_DIGEST

    def test_cyclic_policy_times_out(self, world_and_reg, grid, goal, library):
        world, reg = world_and_reg
        cyclic = {}
        for lid in grid.all_landmarks():
            if lid == goal:
                continue
            cyclic[lid] = Action.RIGHT if lid.col < grid.cols - 1 else Action.LEFT
        bad = PolicyTable(best_action=cyclic, goal=goal, cols=grid.cols, rows=grid.rows)
        cfg = MissionConfig(start=LandmarkId(0, 0), goal=goal, policy=bad, max_ticks=900)
        log = run_mission(world, reg, grid, cfg, library=library)
        assert log.outcome == MissionOutcome.TIMEOUT
        assert log.ticks == 900

    def test_unrecognizable_landmark_is_match_failure(self, world_and_reg, grid, optimal_policy, goal, library):
        world, reg = world_and_reg
        # an impossible inlier requirement keeps the gate shut; the craft
        # passes the landmark and the leg budget expires
        params = MatchParams(min_inliers=100_000)
        cfg = MissionConfig(
            start=LandmarkId(5, 4), goal=goal, policy=optimal_policy, match_params=params
        )
        log = run_mission(world, reg, grid, cfg, library=library)
        assert log.outcome == MissionOutcome.MATCH_FAILURE
        assert log.nearest_miss_m is not None
        assert log.nearest_miss_m <= min(grid.spacing_x, grid.spacing_y) / 2.0

    def test_footprint_leaving_raster_ends_leg(self, world_and_reg, grid, rewards, library):
        world, reg = world_and_reg
        # the gate stays shut, the craft flies past the east edge landmark,
        # and a jittered footprint leaves the world raster before the leg
        # budget runs out
        goal = LandmarkId(9, 5)
        cfg = MissionConfig(
            start=LandmarkId(8, 5),
            goal=goal,
            policy=greedy_policy(value_iteration(grid, rewards, goal), grid),
            match_params=MatchParams(min_inliers=100_000),
            perturbation=PerturbationSpec(rotation_jitter=0.17, translation_jitter=3.0, rng_seed=1),
        )
        log = run_mission(world, reg, grid, cfg, library=library)
        assert log.outcome == MissionOutcome.MATCH_FAILURE
        assert log.nearest_miss_m is not None
        assert log.nearest_miss_m <= min(grid.spacing_x, grid.spacing_y) / 2.0
        assert log.arrivals == []

    def test_library_keypoint_cap_must_match_mission(self, world_and_reg, grid, optimal_policy, goal, library):
        world, reg = world_and_reg
        params = MatchParams(max_keypoints=library.params.max_keypoints + 1)
        cfg = MissionConfig(
            start=LandmarkId(5, 4), goal=goal, policy=optimal_policy, match_params=params
        )
        with pytest.raises(InvalidStateError, match="max_keypoints"):
            run_mission(world, reg, grid, cfg, library=library)

    def test_policy_wall_command_raises(self, world_and_reg, grid, goal, library):
        world, reg = world_and_reg
        suicidal = {
            lid: Action.LEFT
            for lid in grid.all_landmarks()
            if lid != goal
        }
        bad = PolicyTable(best_action=suicidal, goal=goal, cols=grid.cols, rows=grid.rows)
        cfg = MissionConfig(start=LandmarkId(0, 5), goal=goal, policy=bad)
        with pytest.raises(PolicyInconsistencyError):
            run_mission(world, reg, grid, cfg, library=library)


@pytest.fixture(scope="module")
def mission_log(world_and_reg, grid, optimal_policy, goal, library):
    world, reg = world_and_reg
    cfg = MissionConfig(start=LandmarkId(5, 7), goal=goal, policy=optimal_policy)
    return run_mission(world, reg, grid, cfg, library=library)


class TestExport:
    def test_csv_row_count_equals_ticks(self, mission_log, tmp_path):
        path = tmp_path / "mission.csv"
        write_mission_csv(mission_log, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + mission_log.ticks

    def test_csv_pose_round_trip(self, mission_log, tmp_path):
        path = tmp_path / "mission.csv"
        write_mission_csv(mission_log, path)
        rows = read_mission_poses(path)
        assert len(rows) == mission_log.ticks
        for (tick, x, y), rec in zip(rows, mission_log.records):
            assert tick == rec.tick
            assert abs(x - rec.x) <= 1e-3
            assert abs(y - rec.y) <= 1e-3

    def test_svg_overlay(self, mission_log, world_and_reg, grid, tmp_path):
        world, reg = world_and_reg
        csv_path = tmp_path / "mission.csv"
        svg_path = tmp_path / "mission.svg"
        export_trajectory(mission_log, csv_path, svg_path, world=world, reg=reg, grid=grid)
        text = svg_path.read_text()
        assert text.startswith("<svg")
        assert "data:image/png;base64," in text
        assert "polyline" in text
        assert "goal (reached_goal)" in text
