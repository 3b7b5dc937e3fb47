"""Phase 2 closed loop: fly the learned policy over the raster world.

The craft moves at constant speed along the commanded cardinal direction
and periodically renders a (perturbed) observation. Arrival at the expected
next landmark is a perception event: the observation is matched against
that landmark's descriptor image, and the landmark counts as reached at the
shortest perceived center distance once the arrival gate has passed. The
pose is never snapped to the lattice, so perception latency and jitter show
up as honest drift; at each arrival a four-way ranking pass over the
departure cell's neighbors re-confirms which landmark was reached.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import CoverageError, InvalidStateError, PolicyInconsistencyError
from .grid import Action, GridSpec, LandmarkId, landmark_position, neighbors
from .imagery import PerturbationSpec, Pose, landmark_descriptor_image, render_observation
from .matching import (
    DescriptorSet,
    MatchParams,
    MatchResult,
    arrival_check,
    build_descriptor_set,
    match_images,
    target_ranks_first,
)
from .policy import PolicyTable
from .raster import GeoRegistration, RasterImage, to_gray
from . import svgplot


LEG_SLACK_M = 10.0  # extra travel allowed past a landmark before giving up
_SVG_DOWNSAMPLE = 4  # world pixels per trajectory-overlay pixel


class MissionOutcome(Enum):
    REACHED_GOAL = "reached_goal"
    TIMEOUT = "timeout"
    MATCH_FAILURE = "match_failure"


@dataclass
class MissionConfig:
    start: LandmarkId
    goal: LandmarkId
    policy: PolicyTable
    control_step_m: float = 1.0
    observation_period: int = 2  # ticks per match attempt
    max_ticks: int = 4000
    perturbation: PerturbationSpec = field(default_factory=PerturbationSpec)
    match_params: MatchParams = field(default_factory=MatchParams)

    def __post_init__(self):
        if self.start == self.goal:
            raise InvalidStateError("mission start equals goal")
        if not (math.isfinite(self.control_step_m) and self.control_step_m > 0):
            raise ValueError("control step must be positive and finite")
        if self.observation_period < 1:
            raise ValueError("observation period must be >= 1 tick")


@dataclass
class TickRecord:
    tick: int
    x: float
    y: float
    action: Action
    attempted: bool = False
    n_matches: int = 0
    inliers: int = 0
    center_distance_m: float | None = None
    arrival: LandmarkId | None = None
    confirmed: bool | None = None


@dataclass
class MissionLog:
    start: LandmarkId
    goal: LandmarkId
    records: list[TickRecord]
    outcome: MissionOutcome
    distance_flown_m: float
    nearest_miss_m: float | None = None

    @property
    def ticks(self) -> int:
        return len(self.records)

    @property
    def arrivals(self) -> list[TickRecord]:
        """The tick records of the arrivals, in flight order."""
        return [r for r in self.records if r.arrival is not None]


class LandmarkLibrary:
    """Lazy cache of per-landmark descriptor sets cut from the world raster."""

    def __init__(self, world: RasterImage, reg: GeoRegistration, grid: GridSpec, params: MatchParams):
        self.world = world
        self.reg = reg
        self.grid = grid
        self.params = params
        self._cache: dict[LandmarkId, DescriptorSet] = {}

    def get(self, lid: LandmarkId) -> DescriptorSet:
        if lid not in self._cache:
            crop = landmark_descriptor_image(self.world, self.reg, self.grid, lid)
            self._cache[lid] = build_descriptor_set(to_gray(crop), self.params)
        return self._cache[lid]


def expected_landmark(grid: GridSpec, current: LandmarkId, action: Action) -> LandmarkId:
    """The 4-neighbor in the commanded direction; commanding into a wall is
    a policy-validation failure, not a navigation outcome."""
    nbr = neighbors(grid, current)[action]
    if nbr is None:
        raise PolicyInconsistencyError(
            f"policy commands {action.token} off the grid at ({current.col},{current.row})"
        )
    return nbr


def _overrun(min_true: float, near_pass_m: float) -> tuple[MissionOutcome, float | None]:
    """How a leg that ends without an arrival ends the mission: MATCH_FAILURE
    with the nearest miss if the craft passed near the landmark (recognition
    failed), TIMEOUT otherwise."""
    if min_true <= near_pass_m:
        return MissionOutcome.MATCH_FAILURE, min_true
    return MissionOutcome.TIMEOUT, None


def closest_approach(res: MatchResult, best_cd: float, sample_floor: float, min_inliers: int) -> bool:
    """Whether this attempt ends the leg at the closest approach.

    Only a solid match (a model and at least ``min_inliers`` inliers) can
    arrive. It arrives when its center distance is within one sampling
    interval (``sample_floor``, at most the gate's distance threshold; such
    a distance cannot meaningfully improve) or when
    the distance has stopped shrinking since ``best_cd``, the smallest
    distance of an earlier attempt of the leg that passed the arrival gate
    (``math.inf`` before one has).
    """
    if res.affine is None or res.inliers < min_inliers:
        return False
    return res.center_distance_m <= sample_floor or res.center_distance_m >= best_cd


def run_mission(
    world: RasterImage,
    reg: GeoRegistration,
    grid: GridSpec,
    cfg: MissionConfig,
    library: LandmarkLibrary | None = None,
) -> MissionLog:
    """Fly from start to goal under the policy; deterministic given seeds.

    Each tick advances the pose by ``control_step_m`` along the commanded
    cardinal direction. Every ``observation_period`` ticks an observation is
    rendered and matched against the expected landmark. Arrival is declared
    at the shortest perceived center distance (``closest_approach``): checks
    must first pass the arrival gate (model + inliers + distance threshold),
    and the landmark counts as reached on the next solid match whose
    distance stops shrinking. The policy is then consulted at the reached
    landmark; the next leg starts from the true, drifted pose. Legs that
    overrun their travel budget end the mission: MATCH_FAILURE if the craft
    actually passed near the landmark (recognition failed), TIMEOUT
    otherwise. A leg whose jittered footprint leaves the world raster ends
    the same way; exceeding ``max_ticks`` is always TIMEOUT.
    """
    grid.check(cfg.start)
    grid.check(cfg.goal)
    diameter_m = (grid.cols - 1) * grid.spacing_x + (grid.rows - 1) * grid.spacing_y
    if cfg.max_ticks * cfg.control_step_m <= diameter_m:
        raise InvalidStateError("max_ticks too small to cross the grid")
    params = cfg.match_params
    if library is None:
        library = LandmarkLibrary(world, reg, grid, params)
    elif library.params.max_keypoints != params.max_keypoints:
        # the library's descriptor sets were detected with its own cap
        raise InvalidStateError(
            f"landmark library describes with max_keypoints={library.params.max_keypoints}, "
            f"mission match params ask for {params.max_keypoints}"
        )

    rng = np.random.default_rng(cfg.perturbation.rng_seed)
    sample_floor = min(cfg.control_step_m * cfg.observation_period, params.distance_threshold_m)
    near_pass_m = min(grid.spacing_x, grid.spacing_y) / 2.0
    pose = landmark_position(grid, cfg.start).astype(np.float64)
    cell = cfg.start
    records: list[TickRecord] = []

    def end(outcome: MissionOutcome, nearest_miss: float | None = None) -> MissionLog:
        return MissionLog(
            start=cfg.start,
            goal=cfg.goal,
            records=records,
            outcome=outcome,
            distance_flown_m=len(records) * cfg.control_step_m,
            nearest_miss_m=nearest_miss,
        )

    while cell != cfg.goal:
        try:
            action = cfg.policy.action_at(cell)
        except KeyError:
            raise PolicyInconsistencyError(f"policy undefined at ({cell.col},{cell.row})") from None
        target = expected_landmark(grid, cell, action)
        target_pos = landmark_position(grid, target)
        step = cfg.control_step_m * np.array(action.displacement, dtype=np.float64)
        leg_budget = (
            float(np.linalg.norm(target_pos - pose)) + 2.0 * params.distance_threshold_m + LEG_SLACK_M
        )
        travelled = 0.0
        min_true = math.inf
        best_cd = math.inf  # smallest gate-passing center distance this leg

        while True:
            if len(records) >= cfg.max_ticks:
                return end(MissionOutcome.TIMEOUT)
            pose = pose + step
            travelled += cfg.control_step_m
            min_true = min(min_true, float(np.linalg.norm(pose - target_pos)))
            rec = TickRecord(tick=len(records) + 1, x=float(pose[0]), y=float(pose[1]), action=action)
            records.append(rec)

            if rec.tick % cfg.observation_period == 0:
                try:
                    obs = render_observation(world, reg, Pose(rec.x, rec.y), cfg.perturbation, rng=rng)
                except CoverageError:
                    # the craft can no longer observe this leg: it overruns here
                    return end(*_overrun(min_true, near_pass_m))
                obs_set = build_descriptor_set(obs, params)
                attempt = rec.tick // cfg.observation_period
                # one RANSAC seed per attempt, for the target and any rival fit
                attempt_params = replace(params, rng_seed=params.rng_seed + attempt)
                res = match_images(obs_set, library.get(target), attempt_params, reg.gsd, target=target)
                rec.attempted = True
                rec.n_matches = res.n_matches
                rec.inliers = res.inliers
                rec.center_distance_m = res.center_distance_m
                if closest_approach(res, best_cd, sample_floor, params.min_inliers):
                    # re-rank the departure cell's neighbors, reusing this
                    # attempt's match of the target
                    rec.arrival = target
                    rec.confirmed = target_ranks_first(
                        obs_set, res, [nid for nid in neighbors(grid, cell).values() if nid is not None],
                        library.get, attempt_params, reg.gsd,
                    )
                    break
                if arrival_check(res, params.distance_threshold_m, params.min_inliers):
                    best_cd = res.center_distance_m

            if travelled >= leg_budget:
                return end(*_overrun(min_true, near_pass_m))
        cell = target

    return end(MissionOutcome.REACHED_GOAL)


MISSION_CSV_HEADER = (
    "tick,x_m,y_m,action,attempted,matches,inliers,"
    "center_distance_m,arrival_col,arrival_row,confirmed"
)


def write_mission_csv(log: MissionLog, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MISSION_CSV_HEADER.split(","))
        for r in log.records:
            writer.writerow([
                r.tick,
                f"{r.x:.6f}",
                f"{r.y:.6f}",
                r.action.token,
                int(r.attempted),
                r.n_matches if r.attempted else "",
                r.inliers if r.attempted else "",
                f"{r.center_distance_m:.6f}" if r.center_distance_m is not None else "",
                r.arrival.col if r.arrival else "",
                r.arrival.row if r.arrival else "",
                "" if r.confirmed is None else int(r.confirmed),
            ])


def read_mission_poses(path) -> np.ndarray:
    """(tick, x, y) rows back from a mission CSV; used by round-trip checks."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = [(int(r["tick"]), float(r["x_m"]), float(r["y_m"])) for r in reader]
    return np.array(rows)


def export_trajectory(
    log: MissionLog,
    csv_path,
    svg_path,
    world: RasterImage,
    reg: GeoRegistration,
    grid: GridSpec,
) -> None:
    """Write the per-tick CSV and an SVG overlay of the flight on a
    downsampled world raster with the landmark lattice and arrival events
    marked."""
    write_mission_csv(log, csv_path)
    small = world.pixels[::_SVG_DOWNSAMPLE, ::_SVG_DOWNSAMPLE]
    scale = 1.0 / _SVG_DOWNSAMPLE

    def to_svg(x_m: float, y_m: float) -> tuple[float, float]:
        p = reg.world_to_pixel(np.array([x_m, y_m]))
        return float(p[0]) * scale, float(p[1]) * scale

    body = [svgplot.image_panel(small, 0, 0)]
    for lid in grid.all_landmarks():
        pos = landmark_position(grid, lid)
        x, y = to_svg(pos[0], pos[1])
        body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="none" stroke="#ffcf40" stroke-width="1"/>')
    pts = " ".join(f"{to_svg(r.x, r.y)[0]:.2f},{to_svg(r.x, r.y)[1]:.2f}" for r in log.records)
    if pts:
        body.append(f'<polyline points="{pts}" fill="none" stroke="#00d0ff" stroke-width="1.5"/>')
    for ev in log.arrivals:
        pos = landmark_position(grid, ev.arrival)
        x, y = to_svg(pos[0], pos[1])
        color = "#30e030" if ev.arrival == log.goal else "#ff4040"
        body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="5" fill="none" stroke="{color}" stroke-width="2"/>')
    sx, sy = to_svg(*landmark_position(grid, log.start))
    body.append(f'<text x="{sx + 7:.2f}" y="{sy - 7:.2f}" fill="#00d0ff">start</text>')
    gx, gy = to_svg(*landmark_position(grid, log.goal))
    body.append(f'<text x="{gx + 7:.2f}" y="{gy - 7:.2f}" fill="#30e030">goal ({log.outcome.value})</text>')

    h, w = small.shape[:2]
    with open(svg_path, "w") as fh:
        fh.write(svgplot.svg_document(w, h, body))
