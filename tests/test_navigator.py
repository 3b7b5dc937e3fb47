import base64
import csv
import hashlib
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uasnav import matching, navigator
from uasnav.errors import InvalidStateError, PolicyInconsistencyError
from uasnav.grid import Action, GridSpec, LandmarkId, landmark_position, manhattan, neighbors
from uasnav.imagery import PerturbationSpec, Pose, WorldSpec, build_world, render_observation
from uasnav.matching import DESCRIPTOR_DIM, AffineTransform, MatchParams, MatchResult, build_descriptor_set
from uasnav.navigator import (
    CONTROL_STEP_M,
    OBSERVATION_PERIOD,
    Gate,
    LandmarkLibrary,
    MissionConfig,
    MissionOutcome,
    expected_landmark,
    export_trajectory,
    gate,
    run_mission,
    write_mission_csv,
)
from uasnav.policy import PolicyTable, greedy_policy, value_iteration
from uasnav.raster import RasterImage

# SHA-256 of the attempted ticks of the reference mission flown in
# test_mission_is_deterministic. A change that alters perception numbers
# on purpose updates this constant and says why.
GOLDEN_MISSION_DIGEST = "f60bb7279167375265855822112ae969c59ac71f1aba12c492a78146a28aee76"
# SHA-256 of that mission's whole mission.csv: every pose as well as every attempt
GOLDEN_MISSION_CSV_SHA256 = "6d125ff2e0c75e8f04dd1648369e8b21fc32a5c575f1d3fed5fe71e69aba9b9a"
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


@pytest.fixture(scope="module")
def golden_flight(world_and_reg, grid, optimal_policy, goal, library):
    """The reference mission, flown once for the tests that read its log:
    ``(cfg, log, match calls, ranked)``, ``ranked`` holding each arrival's
    match of its target as its ranking received it."""
    world, reg = world_and_reg
    cfg = MissionConfig(start=GOLDEN_START, goal=goal, policy=optimal_policy, perturbation=GOLDEN_PERTURBATION)
    matches, ranked = [], []
    match_images, target_ranks_first = navigator.match_images, navigator.target_ranks_first

    def recording_match(*args, **kwargs):
        matches.append(1)
        return match_images(*args, **kwargs)

    def recording_rank(obs, res, *args):
        ranked.append(res)
        return target_ranks_first(obs, res, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(navigator, "match_images", recording_match)
        mp.setattr(navigator, "target_ranks_first", recording_rank)
        log = run_mission(world, reg, grid, cfg, library=library)
    return cfg, log, len(matches), ranked


@pytest.fixture(scope="module")
def golden_mission(golden_flight):
    cfg, log, *_ = golden_flight
    return cfg, log


@pytest.fixture(scope="module")
def short_leg():
    """A 2x2 lattice with one 40 m leg east from (0, 0) to (1, 0), and the
    gate shut by an impossible inlier requirement: ``(world, reg, grid,
    library, policy)``."""
    grid = GridSpec(cols=2, rows=2, spacing_x=40, spacing_y=10)
    world, reg = build_world(grid, WorldSpec())
    library = LandmarkLibrary(world, reg, grid, MatchParams(min_inliers=100_000))
    goal = LandmarkId(1, 0)
    policy = PolicyTable(best_action={LandmarkId(0, 0): Action.RIGHT}, goal=goal, cols=grid.cols, rows=grid.rows)
    return world, reg, grid, library, policy


def _leg_ticks(log, after, until):
    """The observation-tick records after tick ``after`` up to ``until``."""
    return [r for r in log.records[after:until] if r.tick % OBSERVATION_PERIOD == 0]


class TestExpectedLandmark:
    def test_lattice_arithmetic(self, grid):
        assert expected_landmark(grid, LandmarkId(2, 2), Action.RIGHT) == LandmarkId(3, 2)
        assert expected_landmark(grid, LandmarkId(5, 4), Action.FORWARD) == LandmarkId(5, 5)

    def test_wall_command_is_policy_inconsistency(self, grid):
        with pytest.raises(PolicyInconsistencyError):
            expected_landmark(grid, LandmarkId(0, 0), Action.LEFT)


def _result(inliers, east, north, with_affine=True):
    """A match whose view center reads ``east`` and ``north`` meters from
    its landmark's center."""
    offset = np.array([east, north])
    return MatchResult(
        target=None,
        pairs=np.zeros((0, 2), dtype=int),
        inliers=inliers,
        affine=AffineTransform(np.eye(2, 3)) if with_affine else None,
        offset_m=offset if with_affine else None,
        center_distance_m=float(np.linalg.norm(offset)) if with_affine else None,
    )


class TestClosestApproach:
    HALF = 1.0  # half a sampling interval
    PARAMS = MatchParams()  # 30 inliers, 5 m distance threshold
    WEAK = (Gate.NO_MODEL, Gate.FEW_INLIERS)
    NORTH = Action.FORWARD.displacement  # along-track reads minus the offset's north part

    def _verdict(self, res, direction=NORTH):
        return gate(res, direction, self.HALF, self.PARAMS)

    def test_reading_abeam_or_past_it_arrives(self):
        for north in (-self.HALF, 0.0, self.HALF, 4.0):
            assert self._verdict(_result(150, 2.0, north)) is Gate.CLOSEST_APPROACH

    def test_reading_short_of_abeam_is_closing_in(self):
        assert self._verdict(_result(150, 0.0, -math.nextafter(self.HALF, math.inf))) is Gate.CLOSING_IN
        assert self._verdict(_result(150, 0.0, -4.0)) is Gate.CLOSING_IN

    def test_reading_is_projected_on_the_move(self):
        # 3 m west and 0.5 m south of the landmark: short of it only flying east
        res = _result(150, -3.0, -0.5)
        verdicts = {action: self._verdict(res, action.displacement) for action in Action}
        assert verdicts == {
            Action.FORWARD: Gate.CLOSEST_APPROACH,
            Action.BACKWARD: Gate.CLOSEST_APPROACH,
            Action.LEFT: Gate.CLOSEST_APPROACH,
            Action.RIGHT: Gate.CLOSING_IN,
        }

    def test_distance_beyond_the_threshold_never_arrives(self):
        # a reading abeam with a lateral offset beyond the threshold is too far
        for north in (-30.0, -self.HALF, 0.0, 30.0):
            assert self._verdict(_result(150, 7.5, north)) is Gate.TOO_FAR
        edge = _result(150, self.PARAMS.distance_threshold_m, 0.0)
        assert self._verdict(edge) is Gate.CLOSEST_APPROACH

    def test_weak_match_never_arrives(self):
        assert self._verdict(_result(150, 0.0, 0.0, with_affine=False)) is Gate.NO_MODEL
        assert self._verdict(_result(self.PARAMS.min_inliers - 1, 0.0, 0.0)) is Gate.FEW_INLIERS
        assert self._verdict(_result(self.PARAMS.min_inliers - 1, 9.0, 30.0)) is Gate.FEW_INLIERS

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        inliers=st.integers(0, 400),
        shortfall=st.integers(0, 300),
        with_affine=st.booleans(),
        east=st.floats(-50.0, 50.0),
        north=st.floats(-50.0, 50.0),
        action=st.sampled_from(Action),
        half_interval=st.floats(0.05, 2.5),
    )
    def test_weak_match_never_arrives_property(
        self, inliers, shortfall, with_affine, east, north, action, half_interval
    ):
        # a result without a model, or with a model below the inlier floor
        params = MatchParams(min_inliers=inliers + shortfall + with_affine)
        res = _result(inliers, east, north, with_affine)
        assert gate(res, action.displacement, half_interval, params) in self.WEAK

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        inliers=st.integers(0, 400),
        min_inliers=st.integers(0, 400),
        with_affine=st.booleans(),
        east=st.floats(-50.0, 50.0),
        north=st.floats(-50.0, 50.0),
        action=st.sampled_from(Action),
        half_interval=st.floats(0.05, 2.5),
        threshold=st.floats(0.0, 20.0),
    )
    def test_verdict_states_the_rule(
        self, inliers, min_inliers, with_affine, east, north, action, half_interval, threshold
    ):
        params = MatchParams(min_inliers=min_inliers, distance_threshold_m=threshold)
        res = _result(inliers, east, north, with_affine)
        verdict = gate(res, action.displacement, half_interval, params)
        # a solid match re-anchors the prediction ...
        solid = with_affine and inliers >= min_inliers
        # ... and arrives within the threshold once it reads abeam, within
        # half an interval, or past it
        within = solid and res.center_distance_m <= threshold
        along_m = -(east * action.displacement[0] + north * action.displacement[1])
        assert (verdict not in self.WEAK) == solid
        assert (verdict is Gate.NO_MODEL) == (not with_affine)
        assert (verdict is Gate.TOO_FAR) == (solid and not within)
        assert (verdict is Gate.CLOSEST_APPROACH) == (within and along_m <= half_interval)
        assert (verdict is Gate.CLOSING_IN) == (within and along_m > half_interval)


class TestArrivalCheck:
    """The gate's pass: a solid match within the distance threshold is
    CLOSING_IN or, read within half a sampling interval of abeam or past
    it, the CLOSEST_APPROACH."""

    PASSING = (Gate.CLOSING_IN, Gate.CLOSEST_APPROACH)
    NORTH = Action.FORWARD.displacement  # along-track reads minus the offset's north part

    def _verdict(self, res, threshold, min_inliers, half_interval=1.0):
        params = MatchParams(min_inliers=min_inliers, distance_threshold_m=threshold)
        return gate(res, self.NORTH, half_interval, params)

    def test_passes_thresholds(self):
        assert self._verdict(_result(150, 1.2, 0.0), 5.0, 30) in self.PASSING
        assert self._verdict(_result(150, 0.0, -4.0), 5.0, 30) in self.PASSING

    def test_no_affine_fails(self):
        res = _result(150, 1.2, 0.0, with_affine=False)
        assert self._verdict(res, 5.0, 30) not in self.PASSING
        assert gate(res, self.NORTH, 1.0, MatchParams()) is Gate.NO_MODEL

    def test_collinear_matches_give_no_model(self):
        # 20 mutual pairs whose keypoints all lie on one line: every RANSAC
        # triple is degenerate, so the match has pairs but no model
        n = 20
        keypoints = np.column_stack([np.arange(n) * 10.0 + 40.0, np.full(n, 240.0), np.ones(n)])
        dset = matching.DescriptorSet(keypoints=keypoints, descriptors=np.eye(n, 128), image_size=(640, 480))
        res = matching.match_images(dset, dset, MatchParams(), gsd=0.25)
        assert res.n_matches == n
        assert res.affine is None
        assert res.inliers == 0
        assert res.offset_m is None and res.center_distance_m is None
        assert gate(res, self.NORTH, 1.0, MatchParams()) is Gate.NO_MODEL

    def test_few_inliers_fail_regardless_of_distance(self):
        res = _result(10, 0.0, 0.0)
        assert self._verdict(res, 5.0, 30) not in self.PASSING
        assert gate(res, self.NORTH, 1.0, MatchParams()) is Gate.FEW_INLIERS

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        inliers=st.integers(0, 400),
        east=st.floats(-30.0, 30.0),
        north=st.floats(-30.0, 30.0),
        more=st.integers(0, 400),
        shrink=st.floats(0.0, 1.0),
        nearer=st.floats(0.0, 50.0),
        threshold=st.floats(0.1, 20.0),
        min_inliers=st.integers(1, 300),
        half_interval=st.floats(0.05, 2.5),
    )
    def test_arrival_check_is_monotone(
        self, inliers, east, north, more, shrink, nearer, threshold, min_inliers, half_interval
    ):
        # more inliers or an offset shrunk toward the landmark never closes
        # an open gate nor undoes an arrival, and a reading further along
        # never undoes an arrival while it stays within the threshold
        verdict = self._verdict(_result(inliers, east, north), threshold, min_inliers, half_interval)
        if verdict in self.PASSING:
            better = _result(inliers + more, east * shrink, north * shrink)
            assert self._verdict(better, threshold, min_inliers, half_interval) in self.PASSING
        if verdict is Gate.CLOSEST_APPROACH:
            assert self._verdict(better, threshold, min_inliers, half_interval) is Gate.CLOSEST_APPROACH
            later = _result(inliers, east, north + nearer)
            if later.center_distance_m <= threshold:
                assert self._verdict(later, threshold, min_inliers, half_interval) is Gate.CLOSEST_APPROACH


class TestMissionConfig:
    def test_start_equals_goal_rejected(self, optimal_policy, goal):
        with pytest.raises(InvalidStateError):
            MissionConfig(start=goal, goal=goal, policy=optimal_policy)


class TestMission:
    def test_adjacent_start_single_leg(self, world_and_reg, grid, optimal_policy, goal, library):
        world, reg = world_and_reg
        cfg = MissionConfig(start=LandmarkId(5, 4), goal=goal, policy=optimal_policy)
        log = run_mission(world, reg, grid, cfg, library=library)
        assert log.outcome == MissionOutcome.REACHED_GOAL
        assert len(log.arrivals) == 1
        # one leg of one row spacing, up to one sampling interval of latency
        sampling = OBSERVATION_PERIOD * CONTROL_STEP_M
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
            bound = cfg.match_params.distance_threshold_m + CONTROL_STEP_M
            for rec in log.arrivals:
                pos = landmark_position(grid, rec.arrival)
                assert np.hypot(rec.x - pos[0], rec.y - pos[1]) <= bound

    def test_mission_is_deterministic(self, world_and_reg, grid, library, golden_mission, tmp_path):
        world, reg = world_and_reg
        cfg, log1 = golden_mission
        log2 = run_mission(world, reg, grid, cfg, library=library)
        p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        write_mission_csv(log1, p1)
        write_mission_csv(log2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert _attempt_digest(log1) == GOLDEN_MISSION_DIGEST
        assert hashlib.sha256(p1.read_bytes()).hexdigest() == GOLDEN_MISSION_CSV_SHA256

    def test_travel_budget_ends_a_leg(self, short_leg):
        # the one leg runs out of travel budget at tick 60 (40 m, twice the
        # 5 m distance threshold and 10 m of slack), and the craft passed
        # over the landmark: the near-pass rule makes it MATCH_FAILURE
        world, reg, grid, library, policy = short_leg
        cfg = MissionConfig(
            start=LandmarkId(0, 0), goal=LandmarkId(1, 0), policy=policy, match_params=library.params
        )
        log = run_mission(world, reg, grid, cfg, library=library)
        assert (log.outcome, log.ticks, log.nearest_miss_m) == (MissionOutcome.MATCH_FAILURE, 60, 0.0)

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

    def test_footprint_leaving_raster_far_from_landmark_times_out(self, grid, rewards):
        # half-window margins leave no room for a rotated footprint at the
        # north edge: the first render of the leg fails, the leg overruns
        # 2 ticks out, far from its landmark, and the mission is a TIMEOUT
        world, reg = build_world(grid, WorldSpec(margin_x_m=80, margin_y_m=60))
        goal = LandmarkId(1, 9)
        cfg = MissionConfig(
            start=LandmarkId(0, 9),
            goal=goal,
            policy=greedy_policy(value_iteration(grid, rewards, goal), grid),
            perturbation=PerturbationSpec(rotation_jitter=0.05, rng_seed=1),
        )
        log = run_mission(world, reg, grid, cfg, library=LandmarkLibrary(world, reg, grid, cfg.match_params))
        assert log.outcome == MissionOutcome.TIMEOUT
        assert log.ticks == 2
        assert log.nearest_miss_m is None
        assert not any(r.attempted for r in log.records)

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

    def _fly_counting_renders(self, world_and_reg, grid, goal, library, monkeypatch, best_action):
        world, reg = world_and_reg
        renders, render = [], navigator.render_observation

        def counting_render(world, reg, pose, *args, **kwargs):
            renders.append(pose)
            return render(world, reg, pose, *args, **kwargs)

        monkeypatch.setattr(navigator, "render_observation", counting_render)
        policy = PolicyTable(best_action=best_action, goal=goal, cols=grid.cols, rows=grid.rows)
        cfg = MissionConfig(start=LandmarkId(2, 5), goal=goal, policy=policy)
        with pytest.raises(PolicyInconsistencyError) as excinfo:
            run_mission(world, reg, grid, cfg, library=library)
        assert renders == []
        return str(excinfo.value)

    def test_route_without_policy_entry_raises_before_takeoff(
        self, world_and_reg, grid, optimal_policy, goal, library, monkeypatch
    ):
        best_action = dict(optimal_policy.best_action)
        del best_action[LandmarkId(4, 5)]
        message = self._fly_counting_renders(world_and_reg, grid, goal, library, monkeypatch, best_action)
        assert message == "policy undefined at (4,5)"

    def test_route_off_the_grid_raises_before_takeoff(
        self, world_and_reg, grid, optimal_policy, goal, library, monkeypatch
    ):
        best_action = dict(optimal_policy.best_action)
        best_action.update({LandmarkId(4, row): Action.FORWARD for row in range(5, grid.rows)})
        message = self._fly_counting_renders(world_and_reg, grid, goal, library, monkeypatch, best_action)
        assert message == f"policy commands forward off the grid at (4,{grid.rows - 1})"

    def test_revisiting_route_raises_before_takeoff(
        self, world_and_reg, grid, optimal_policy, goal, library, monkeypatch
    ):
        # (2,5) -> (3,5) -> (4,5) -> back to (3,5): the route never reaches the goal
        best_action = dict(optimal_policy.best_action)
        best_action[LandmarkId(4, 5)] = Action.LEFT
        message = self._fly_counting_renders(world_and_reg, grid, goal, library, monkeypatch, best_action)
        assert message == "policy route revisits (3,5)"


class TestSchedule:
    def test_shut_gate_renders_every_period(self, world_and_reg, grid, optimal_policy, goal, library):
        # no solid match, no prediction: every observation tick renders
        world, reg = world_and_reg
        cfg = MissionConfig(
            start=LandmarkId(5, 4), goal=goal, policy=optimal_policy,
            match_params=MatchParams(min_inliers=100_000),
        )
        log = run_mission(world, reg, grid, cfg, library=library)
        assert log.outcome == MissionOutcome.MATCH_FAILURE
        assert [r.attempted for r in log.records] == [
            r.tick % OBSERVATION_PERIOD == 0 for r in log.records
        ]

    def test_golden_mission_skips_far_renders(self, golden_mission, tmp_path):
        _, log = golden_mission
        assert log.outcome == MissionOutcome.REACHED_GOAL
        path = tmp_path / "mission.csv"
        write_mission_csv(log, path)
        assert path.read_text().splitlines()[0] == (
            "tick,x_m,y_m,action,attempted,matches,inliers,"
            "center_distance_m,arrival_col,arrival_row,confirmed"
        )
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == log.ticks
        assert 0 < sum(row["attempted"] == "1" for row in rows) <= 12
        skipped = [
            row for row in rows
            if int(row["tick"]) % OBSERVATION_PERIOD == 0 and row["attempted"] == "0"
        ]
        assert skipped
        for row in skipped:
            assert row["matches"] == row["inliers"] == row["center_distance_m"] == ""

    def test_seeded_leg_renders_from_the_margin_on(self, grid, golden_flight):
        # a leg after an arrival is seeded by the arrival's reading: it
        # renders no tick until the view centre that reading gave, dead-
        # reckoned since, is within half a sampling interval of abeam
        _, log, _, ranked = golden_flight
        margin = CONTROL_STEP_M * OBSERVATION_PERIOD / 2.0
        assert margin == 1.0
        assert len(ranked) == len(log.arrivals) >= 2
        for arrival, res, nxt in zip(log.arrivals, ranked, log.arrivals[1:]):
            fix = landmark_position(grid, arrival.arrival) + res.offset_m
            reading = (landmark_position(grid, nxt.arrival) - fix) @ nxt.action.displacement
            ticks = _leg_ticks(log, arrival.tick, nxt.tick)
            predicted = [reading - (r.tick - arrival.tick) * CONTROL_STEP_M for r in ticks]
            first = next(i for i, r in enumerate(ticks) if r.attempted)
            assert first > 0  # no far render
            assert all(p > margin for p in predicted[:first])
            assert predicted[first] <= margin

    def test_leg_without_a_solid_seed_renders_every_period(
        self, world_and_reg, grid, optimal_policy, goal, library, monkeypatch
    ):
        # the first leg starts unread; with its first three attempts blind,
        # it renders every observation tick up to its first solid match
        world, reg = world_and_reg
        blind = [1] * 3  # match calls still to be answered without a model
        match_images = navigator.match_images

        def matching_blind(obs, train, params, gsd, target=None):
            if blind:
                blind.pop()
                return MatchResult(target, np.zeros((0, 2), dtype=int), 0, None, None, None)
            return match_images(obs, train, params, gsd, target=target)

        monkeypatch.setattr(navigator, "match_images", matching_blind)
        cfg = MissionConfig(start=LandmarkId(4, 4), goal=goal, policy=optimal_policy)
        log = run_mission(world, reg, grid, cfg, library=library)
        assert log.outcome == MissionOutcome.REACHED_GOAL
        ticks = _leg_ticks(log, 0, log.arrivals[0].tick)
        solid = [r.inliers >= cfg.match_params.min_inliers for r in ticks]
        assert solid.index(True) == 3
        assert all(r.attempted for r in ticks[:4])
        assert not all(r.attempted for r in ticks)  # the solid match gives the estimate

    def test_one_match_per_render(self, golden_flight):
        # each render is matched once, against its target: an arrival's own
        # reading opens the next leg
        _, log, matches, _ = golden_flight
        assert len(log.arrivals) >= 2
        assert matches == sum(r.attempted for r in log.records)

    def test_route_is_described_before_takeoff(self, world_and_reg, grid, optimal_policy, goal, monkeypatch):
        # with a cold library, as `uasnav fly` has, no attempt pays for its
        # target's descriptors; only an arrival's rivals are described in flight
        world, reg = world_and_reg
        events = []
        describe, render = navigator.landmark_descriptor_image, navigator.render_observation

        def recording_describe(world, reg, grid, lid):
            events.append(lid)
            return describe(world, reg, grid, lid)

        def recording_render(*args, **kwargs):
            events.append("render")
            return render(*args, **kwargs)

        monkeypatch.setattr(navigator, "landmark_descriptor_image", recording_describe)
        monkeypatch.setattr(navigator, "render_observation", recording_render)
        cfg = MissionConfig(start=LandmarkId(4, 4), goal=goal, policy=optimal_policy)
        log = run_mission(world, reg, grid, cfg, library=LandmarkLibrary(world, reg, grid, cfg.match_params))
        assert log.outcome == MissionOutcome.REACHED_GOAL
        renders = [i for i, ev in enumerate(events) if ev == "render"]
        assert {r.arrival for r in log.arrivals} <= set(events[:renders[0]])
        departures = [cfg.start] + [r.arrival for r in log.arrivals[:-1]]
        rivals = {
            nbr
            for cell, rec in zip(departures, log.arrivals)
            for nbr in neighbors(grid, cell).values()
            if nbr not in (None, rec.arrival)
        }
        in_flight = [ev for ev in events[renders[0]:renders[-1]] if ev != "render"]
        assert in_flight and set(in_flight) <= rivals


def _criterion_6_draw(grid):
    """Start, goal and perturbation of each of the 20 missions of
    acceptance criterion 6, in its draw order."""
    rng = np.random.default_rng(814)
    missions = []
    for _ in range(20):
        start = LandmarkId(int(rng.integers(grid.cols)), int(rng.integers(grid.rows)))
        goal = LandmarkId(int(rng.integers(grid.cols)), int(rng.integers(grid.rows)))
        while goal == start:
            goal = LandmarkId(int(rng.integers(grid.cols)), int(rng.integers(grid.rows)))
        perturb = PerturbationSpec(
            gain=float(rng.uniform(0.7, 1.4)),
            bias=float(rng.uniform(-20.0, 20.0)),
            noise_sigma=float(rng.uniform(0.0, 5.0)),
            rotation_jitter=float(math.radians(rng.uniform(0.0, 5.0))),
            translation_jitter=2.0,
            rng_seed=int(rng.integers(1 << 31)),
        )
        missions.append((start, goal, perturb))
    return missions


class TestPerturbedArrivals:
    # missions of the criterion-6 draw, under 2 m of translation jitter: an
    # arrival reads abeam within half an interval, so it is truly within
    # hypot(3.75, 3.75) = 5.3 m of its landmark (TestReadingError)
    @pytest.mark.parametrize("index", [2, 9, 17])
    def test_arrivals_within_bound(self, world_and_reg, grid, rewards, match_params, library, index):
        world, reg = world_and_reg
        start, goal, perturb = _criterion_6_draw(grid)[index]
        cfg = MissionConfig(
            start=start, goal=goal, policy=greedy_policy(value_iteration(grid, rewards, goal), grid),
            perturbation=perturb, match_params=match_params,
        )
        log = run_mission(world, reg, grid, cfg, library=library)
        assert log.outcome == MissionOutcome.REACHED_GOAL
        assert len(log.arrivals) == manhattan(start, goal)
        bound = cfg.match_params.distance_threshold_m + CONTROL_STEP_M
        for rec in log.arrivals:
            pos = landmark_position(grid, rec.arrival)
            assert np.hypot(rec.x - pos[0], rec.y - pos[1]) <= bound


class TestReadingError:
    """The along-track reading on which a leg's render schedule and its
    arrival rest. Its error bound e is ``translation_jitter + inlier_tol_px
    * gsd``: the render's center moves at most ``translation_jitter`` (its
    radius is drawn up to that bound), and the fitted affine maps the view
    center within the inlier tolerance."""

    def test_reading_is_within_the_bound(self, world_and_reg, grid, match_params, library):
        # single attempts on random legs inside the envelope: rotation up to
        # 10 degrees, the criterion-6 gain, bias and noise, up to 4 m of
        # lateral drift, up to one cell spacing (40 m or 30 m) before the landmark
        world, reg = world_and_reg
        rng = np.random.default_rng(1806)
        fit_bound = match_params.inlier_tol_px * reg.gsd
        for jitter in (0.0, 2.0):
            errors = []
            for _ in range(30):
                cell = LandmarkId(int(rng.integers(grid.cols)), int(rng.integers(grid.rows)))
                moves = list(neighbors(grid, cell).items())
                action, target = moves[int(rng.integers(len(moves)))]
                d = np.array(action.displacement, dtype=np.float64)
                along = float(rng.uniform(0.0, grid.spacing_x if d[0] else grid.spacing_y))
                pose = landmark_position(grid, target) - along * d + float(rng.uniform(-4.0, 4.0)) * d[::-1]
                perturb = PerturbationSpec(
                    gain=float(rng.uniform(0.7, 1.4)),
                    bias=float(rng.uniform(-20.0, 20.0)),
                    noise_sigma=float(rng.uniform(0.0, 5.0)),
                    rotation_jitter=math.radians(10.0),
                    translation_jitter=jitter,
                    rng_seed=int(rng.integers(1 << 31)),
                )
                obs = build_descriptor_set(render_observation(world, reg, Pose(*pose), perturb), match_params)
                train = library.get(target)
                res = matching.match_images(obs, train, match_params, reg.gsd, target=target)
                if not gate(res, action.displacement, 1.0, match_params).solid:
                    continue
                reading = -(res.offset_m @ action.displacement)
                errors.append(abs(reading - along))
                assert errors[-1] <= jitter + fit_bound
            assert len(errors) >= 27
            if jitter:
                # the jittered center strays beyond what the fit alone allows
                assert max(errors) > fit_bound

    def test_arrivals_are_within_the_bound(self, world_and_reg, grid, match_params, criterion_6_flights):
        """On the criterion-6 draw, every arrival is truly within h + e of
        abeam, h being half a sampling interval (1 m): 3.75 m with its 2 m of
        translation jitter.

        An arrival reads at most h, so it is truly at most h + e before
        abeam. The observation tick before it was predicted, or read, more
        than h before abeam, so it was truly more than h - e before, and the
        arrival, one interval later, is truly less than h + e past abeam. (A
        weak match at that tick gives no reading, and the leg can arrive
        one interval later than this.) Motion is exact, so a leg's lateral
        offset is the along-track error of an earlier arrival, bounded the
        same way, and an arrival is truly within hypot(3.75, 3.75) = 5.3 m
        of its landmark.

        A reading's center distance errs by up to e as well, so near that
        worst case it can read up to 5.3 + 2.75 m, beyond the 5 m
        ``distance_threshold_m``: the gate is TOO_FAR, and the leg arrives at
        a later tick that reads within 5 m, or overruns into MATCH_FAILURE
        when none does. The threshold cannot refuse such a reading while
        sqrt(2) (h + e) + e <= 5 m, that is e <= 1.48 m: without translation
        jitter at the default 0.75 m fit tolerance, but not with 2 m of it.
        """
        _, reg = world_and_reg
        bound = CONTROL_STEP_M * OBSERVATION_PERIOD / 2.0 + (
            2.0 + match_params.inlier_tol_px * reg.gsd
        )
        assert bound == 3.75
        arrivals = 0
        for _, _, log, _ in criterion_6_flights:
            assert log.outcome == MissionOutcome.REACHED_GOAL
            for rec in log.arrivals:
                offset = landmark_position(grid, rec.arrival) - (rec.x, rec.y)
                assert abs(offset @ rec.action.displacement) <= bound
                assert np.hypot(*offset) <= math.hypot(bound, bound)
                arrivals += 1
        assert arrivals == 122

    def test_leg_after_an_arrival_first_renders_within_the_bound(
        self, world_and_reg, grid, match_params, criterion_6_flights
    ):
        # on the criterion-6 draw, each leg after an arrival first renders
        # truly within h + e of abeam: the arrival read the view centre within
        # e, motion is exact, and the leg first renders at the observation
        # tick whose prediction from that reading is within h of abeam
        _, reg = world_and_reg
        bound = CONTROL_STEP_M * OBSERVATION_PERIOD / 2.0 + (
            2.0 + match_params.inlier_tol_px * reg.gsd
        )
        assert bound == 3.75
        legs = 0
        for _, _, log, _ in criterion_6_flights:
            for arrival, nxt in zip(log.arrivals, log.arrivals[1:]):
                first = next(r for r in log.records[arrival.tick:nxt.tick] if r.attempted)
                offset = landmark_position(grid, nxt.arrival) - (first.x, first.y)
                assert abs(offset @ first.action.displacement) <= bound
                legs += 1
        assert legs == 102


class TestEnvelopeLegs:
    """One-leg missions from a corner, an edge and a center cell under the
    criterion-6 gain, bias and noise with 2 m of translation jitter."""

    LEGS = [((0, 0), (1, 0)), ((9, 4), (9, 5)), ((5, 5), (4, 5))]

    def _fly(self, world_and_reg, grid, rewards, library, degrees, rng):
        world, reg = world_and_reg
        for start, goal in self.LEGS:
            goal = LandmarkId(*goal)
            perturb = PerturbationSpec(
                gain=float(rng.uniform(0.7, 1.4)),
                bias=float(rng.uniform(-20.0, 20.0)),
                noise_sigma=float(rng.uniform(0.0, 5.0)),
                rotation_jitter=math.radians(degrees),
                translation_jitter=2.0,
                rng_seed=int(rng.integers(1 << 31)),
            )
            cfg = MissionConfig(
                start=LandmarkId(*start), goal=goal, policy=greedy_policy(value_iteration(grid, rewards, goal), grid),
                perturbation=perturb,
            )
            yield goal, run_mission(world, reg, grid, cfg, library=library)

    def test_inside_the_envelope_reaches_the_goal(self, world_and_reg, grid, rewards, library):
        # rotation up to 10 degrees; an arrival is within the bound of
        # TestReadingError
        rng = np.random.default_rng(2310)
        for _ in range(2):
            for goal, log in self._fly(world_and_reg, grid, rewards, library, 10.0, rng):
                assert log.outcome == MissionOutcome.REACHED_GOAL
                (arrival,) = log.arrivals
                pos = landmark_position(grid, goal)
                assert math.hypot(arrival.x - pos[0], arrival.y - pos[1]) <= math.hypot(3.75, 3.75)

    @pytest.mark.parametrize("degrees", [25.0, 45.0])
    def test_outside_the_envelope_ends_in_a_named_outcome(self, world_and_reg, grid, rewards, library, degrees):
        # recognition may fail, or a rotated frame leave the world raster
        # (TIMEOUT); no error escapes the flight
        rng = np.random.default_rng(2311)
        outcomes = []
        for goal, log in self._fly(world_and_reg, grid, rewards, library, degrees, rng):
            assert (log.outcome == MissionOutcome.REACHED_GOAL) == ([r.arrival for r in log.arrivals] == [goal])
            assert (log.outcome == MissionOutcome.MATCH_FAILURE) == (log.nearest_miss_m is not None)
            outcomes.append(log.outcome)
        assert set(outcomes) != {MissionOutcome.REACHED_GOAL}


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
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == mission_log.ticks
        for row, rec in zip(rows, mission_log.records):
            assert int(row["tick"]) == rec.tick
            assert abs(float(row["x_m"]) - rec.x) <= 1e-3
            assert abs(float(row["y_m"]) - rec.y) <= 1e-3

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

    def test_svg_overlay_of_gray_world_is_gray_png(self, mission_log, world_and_reg, gray_world, grid, tmp_path):
        _, reg = world_and_reg
        svg_path = tmp_path / "mission.svg"
        export_trajectory(mission_log, tmp_path / "mission.csv", svg_path, world=gray_world, reg=reg, grid=grid)
        png = base64.b64decode(svg_path.read_text().split('href="data:image/png;base64,')[1].split('"')[0])
        # signature, then IHDR (length, tag, 13 data bytes, crc), then IDAT
        width, height, depth, color_type = struct.unpack(">IIBB", png[16:26])
        assert (depth, color_type) == (8, 0)
        (idat_len,) = struct.unpack(">I", png[33:37])
        assert png[37:41] == b"IDAT"
        rows = np.frombuffer(zlib.decompress(png[41:41 + idat_len]), dtype=np.uint8).reshape(height, width + 1)
        assert not rows[:, 0].any()  # no row filter
        step = navigator._SVG_DOWNSAMPLE
        assert np.array_equal(rows[:, 1:], gray_world.pixels[::step, ::step])


STORE_LM = LandmarkId(4, 4)


def _same_set(a, b) -> bool:
    return (
        np.array_equal(a.keypoints, b.keypoints)
        and np.array_equal(a.descriptors, b.descriptors)
        and a.image_size == b.image_size
    )


class TestLandmarkStore:
    """``LandmarkLibrary`` with a ``store`` directory keeps each descriptor
    set as ``lm_<col>_<row>.npz`` and loads it only under the same key."""

    def _library(self, world_and_reg, grid, store, max_keypoints=500):
        world, reg = world_and_reg
        return LandmarkLibrary(world, reg, grid, MatchParams(max_keypoints=max_keypoints), store=store)

    def test_second_library_loads_what_the_first_described(self, world_and_reg, grid, library, tmp_path):
        first = self._library(world_and_reg, grid, tmp_path)
        described = first.get(STORE_LM)
        assert (first.described, first.loaded) == (1, 0)
        assert first.get(STORE_LM) is described  # the in-memory cache still answers first
        second = self._library(world_and_reg, grid, tmp_path)
        loaded = second.get(STORE_LM)
        assert (second.described, second.loaded) == (0, 1)
        assert _same_set(loaded, described)
        assert _same_set(loaded, library.get(STORE_LM))
        assert sorted(f.name for f in tmp_path.iterdir()) == ["lm_4_4.npz"]

    def test_other_keypoint_cap_is_described_again(self, world_and_reg, grid, tmp_path):
        full = self._library(world_and_reg, grid, tmp_path, max_keypoints=500).get(STORE_LM)
        capped = self._library(world_and_reg, grid, tmp_path, max_keypoints=300)
        got = capped.get(STORE_LM)
        assert (capped.described, capped.loaded) == (1, 0)
        fresh = self._library(world_and_reg, grid, None, max_keypoints=300).get(STORE_LM)
        assert len(fresh.keypoints) <= 300 < len(full.keypoints)
        assert _same_set(got, fresh)
        # the rewritten entry now holds the 300-keypoint set
        again = self._library(world_and_reg, grid, tmp_path, max_keypoints=300)
        assert _same_set(again.get(STORE_LM), fresh)
        assert again.loaded == 1

    def test_changed_code_fingerprint_is_described_again(self, world_and_reg, grid, tmp_path, monkeypatch):
        self._library(world_and_reg, grid, tmp_path).get(STORE_LM)
        monkeypatch.setattr(navigator, "code_fingerprint", lambda: b"other describing code")
        changed = self._library(world_and_reg, grid, tmp_path)
        changed.get(STORE_LM)
        assert (changed.described, changed.loaded) == (1, 0)
        monkeypatch.undo()  # the entry now holds the other fingerprint's key
        restored = self._library(world_and_reg, grid, tmp_path)
        restored.get(STORE_LM)
        assert (restored.described, restored.loaded) == (1, 0)

    @pytest.mark.parametrize("damage", [
        "truncate", "empty", "garbage", "npy", "no_descriptors", "float64", "short_rows", "wrong_width",
    ])
    def test_unreadable_entry_is_described_and_rewritten(self, world_and_reg, grid, library, tmp_path, damage):
        self._library(world_and_reg, grid, tmp_path).get(STORE_LM)
        entry = tmp_path / "lm_4_4.npz"
        with np.load(entry) as stored:
            arrays = dict(stored)
        if damage == "truncate":
            entry.write_bytes(entry.read_bytes()[:10])
        elif damage == "empty":
            entry.write_bytes(b"")
        elif damage == "garbage":
            entry.write_bytes(b"not a zip archive at all")
        elif damage == "npy":
            with open(entry, "wb") as fh:
                np.save(fh, arrays["descriptors"])
        else:
            if damage == "no_descriptors":
                del arrays["descriptors"]
            elif damage == "float64":  # as stored before descriptors became float32
                arrays["descriptors"] = arrays["descriptors"].astype(np.float64)
            elif damage == "short_rows":
                arrays["keypoints"] = arrays["keypoints"][:-1]
            else:
                arrays["descriptors"] = arrays["descriptors"][:, :64]
            with open(entry, "wb") as fh:
                np.savez(fh, **arrays)
        repaired = self._library(world_and_reg, grid, tmp_path)
        got = repaired.get(STORE_LM)
        assert (repaired.described, repaired.loaded) == (1, 0)
        assert _same_set(got, library.get(STORE_LM))
        reread = self._library(world_and_reg, grid, tmp_path)
        assert _same_set(reread.get(STORE_LM), got)
        assert reread.loaded == 1
        assert sorted(f.name for f in tmp_path.iterdir()) == ["lm_4_4.npz"]

    def test_cornerless_crop_entry_is_loaded(self, world_and_reg, grid, tmp_path):
        world, reg = world_and_reg
        flat = RasterImage(np.full_like(world.pixels, 90)), reg
        described = self._library(flat, grid, tmp_path).get(STORE_LM)
        assert described.keypoints.shape == (0, 3) and described.descriptors.shape == (0, DESCRIPTOR_DIM)
        second = self._library(flat, grid, tmp_path)
        loaded = second.get(STORE_LM)
        assert (second.described, second.loaded) == (0, 1)
        assert _same_set(loaded, described) and loaded.descriptors.dtype == np.float32

    def test_unwritable_store_still_flies(self, world_and_reg, grid, library, tmp_path, caplog):
        missing = tmp_path / "no_such_dir"
        lib = self._library(world_and_reg, grid, missing)
        with caplog.at_level("DEBUG", logger="uasnav.navigator"):
            got = lib.get(STORE_LM)
        assert (lib.described, lib.loaded) == (1, 0)
        assert _same_set(got, library.get(STORE_LM))
        assert "not written" in caplog.text
        assert not missing.exists()
