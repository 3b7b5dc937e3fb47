"""Phase 2 closed loop: fly the learned policy over the raster world.

The craft moves at constant speed along the commanded cardinal direction
and periodically renders a (perturbed) observation. Arrival at the expected
next landmark is a perception event: the observation is matched against
that landmark's descriptor image, and the landmark counts as reached when
a solid match within the distance threshold reads it abeam, within half a
sampling interval, or past it. The pose is never snapped to the lattice,
so perception latency and jitter show up as honest drift; at each arrival
a four-way ranking pass over the departure cell's neighbors re-confirms
which landmark was reached.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import logging
import math
import os
import zipfile
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np
import scipy

from .errors import CoverageError, InvalidStateError, PolicyInconsistencyError
from .grid import Action, GridSpec, LandmarkId, landmark_position, neighbors
from .imagery import PerturbationSpec, Pose, landmark_descriptor_image, render_observation
from .matching import (
    DescriptorSet,
    MatchParams,
    MatchResult,
    along_track_m,
    build_descriptor_set,
    match_images,
    target_ranks_first,
)
from .policy import PolicyTable
from .raster import GeoRegistration, RasterImage, to_gray
from . import matching, raster, svgplot

logger = logging.getLogger(__name__)


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


@functools.cache
def code_fingerprint() -> bytes:
    """What a stored descriptor set rests on besides its crop and keypoint cap:
    the sources that gray and describe the crop, and the numpy and scipy versions."""
    sources = b"".join(Path(m.__file__).read_bytes() for m in (matching, raster))
    return hashlib.sha256(sources + f"numpy {np.__version__} scipy {scipy.__version__}".encode()).digest()


class LandmarkLibrary:
    """Lazy cache of per-landmark descriptor sets cut from the world raster.
    With a ``store`` directory, each set is also kept there as
    ``lm_<col>_<row>.npz`` under the sha256 of ``code_fingerprint``, the
    keypoint cap and the crop, for later processes to load; an entry without
    that key, or that cannot be read, is described again and replaced."""

    def __init__(
        self, world: RasterImage, reg: GeoRegistration, grid: GridSpec, params: MatchParams, store=None
    ):
        self.world = world
        self.reg = reg
        self.grid = grid
        self.params = params
        self.store = store
        self.described = self.loaded = 0  # sets made by a fill and read from the store
        self._cache: dict[LandmarkId, DescriptorSet] = {}

    def get(self, lid: LandmarkId) -> DescriptorSet:
        if lid not in self._cache:
            crop = landmark_descriptor_image(self.world, self.reg, self.grid, lid)
            found = path = None
            if self.store is not None:
                path = Path(self.store, f"lm_{lid.col}_{lid.row}.npz")
                cap = f"{self.params.max_keypoints} {crop.pixels.shape}".encode()
                key = hashlib.sha256(code_fingerprint() + cap + crop.pixels.tobytes()).hexdigest()
                found = _load_entry(path, key, (crop.width, crop.height))
            self.loaded += found is not None
            if found is None:
                found = build_descriptor_set(to_gray(crop), self.params)
                self.described += 1
                if path is not None:
                    _save_entry(path, key, found)
            self._cache[lid] = found
        return self._cache[lid]


def _load_entry(path: Path, key: str, image_size: tuple[int, int]) -> DescriptorSet | None:
    """The set stored at ``path``, if it holds ``key`` and well-formed arrays."""
    try:
        with np.load(path, allow_pickle=False) as entry:
            kps, desc = entry["keypoints"], entry["descriptors"]
            if str(entry["key"]) == key and kps.dtype == desc.dtype == np.float64 and (
                kps.shape == (len(desc), 3) and desc.shape[1:] == (matching.DESCRIPTOR_DIM,)
            ):
                return DescriptorSet(keypoints=kps, descriptors=desc, image_size=image_size)
    except (OSError, ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile):
        pass
    return None


def _save_entry(path: Path, key: str, desc: DescriptorSet) -> None:
    """Write ``desc`` under ``key`` to a temp file, then move it into place;
    a failed write only costs the next process a fill."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:  # a file handle: numpy adds no .npz suffix
            np.savez(fh, key=key, keypoints=desc.keypoints, descriptors=desc.descriptors)
        os.replace(tmp, path)
    except OSError as exc:
        logger.debug("landmark store entry %s not written: %s", path, exc)
        tmp.unlink(missing_ok=True)


def expected_landmark(grid: GridSpec, current: LandmarkId, action: Action) -> LandmarkId:
    """The 4-neighbor in the commanded direction; commanding into a wall is
    a policy-validation failure, not a navigation outcome."""
    nbr = neighbors(grid, current).get(action)
    if nbr is None:
        raise PolicyInconsistencyError(
            f"policy commands {action.token} off the grid at ({current.col},{current.row})"
        )
    return nbr


class Gate(Enum):
    """The verdict of one attempt at the arrival gate (see ``gate``)."""

    NO_MODEL = "no_model"
    FEW_INLIERS = "few_inliers"
    TOO_FAR = "too_far"
    CLOSING_IN = "closing_in"
    CLOSEST_APPROACH = "closest_approach"

    @property
    def solid(self) -> bool:
        """A model with at least ``min_inliers`` inliers: its reading is trusted."""
        return self not in (Gate.NO_MODEL, Gate.FEW_INLIERS)


def gate(res: MatchResult, along_m: float, half_interval: float, params: MatchParams) -> Gate:
    """The whole arrival rule, on one match and its along-track reading
    ``along_m`` (``along_track_m``; negative past abeam). A solid match (a
    model and at least ``min_inliers`` inliers) is TOO_FAR beyond
    ``distance_threshold_m``; within it, it is the CLOSEST_APPROACH once it
    reads abeam within ``half_interval`` (half a sampling interval) or past
    it, since on a straight leg abeam is the closest approach; else it is
    CLOSING_IN.
    """
    if res.affine is None:
        return Gate.NO_MODEL
    if res.inliers < params.min_inliers:
        return Gate.FEW_INLIERS
    if res.center_distance_m > params.distance_threshold_m:
        return Gate.TOO_FAR
    if along_m <= half_interval:
        return Gate.CLOSEST_APPROACH
    return Gate.CLOSING_IN


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
    rendered and matched against the expected landmark, unless the leg's
    prediction exceeds half a sampling interval. The prediction is the
    along-track distance to the landmark that the leg's latest solid match
    read (``along_track_m``: the view center's offset projected on the
    commanded direction), less the distance flown since, so a predicted leg
    renders at the observation tick nearest its predicted abeam. The
    ``gate`` verdict alone decides each attempt: a solid one re-anchors the
    prediction, CLOSEST_APPROACH (a reading within half an interval of
    abeam, or past it) arrives. At an arrival short of the goal, the arrival
    frame is matched once against the next target with the arrival's RANSAC
    seed; a solid match seeds the next leg's prediction, so that leg makes
    no far render. Before takeoff the policy is walked once, from the start
    to the goal or to the first repeated cell, and each leg's target is
    described; a route cell without a policy entry or with a command off
    the grid raises ``PolicyInconsistencyError`` before the first render.
    Each leg starts from the true, drifted pose of the last arrival.
    Exceeding ``max_ticks`` is TIMEOUT. A leg that overruns its travel
    budget, or whose jittered footprint leaves the world raster, ends the
    mission in MATCH_FAILURE if the craft passed near the landmark
    (recognition failed), else TIMEOUT.
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

    # describe each leg's target before takeoff, so that no attempt pays
    # for a cold fill of its target
    legs: dict[LandmarkId, tuple[Action, LandmarkId]] = {}
    cell = cfg.start
    while cell != cfg.goal and cell not in legs:
        try:
            action = cfg.policy.action_at(cell)
        except KeyError:
            raise PolicyInconsistencyError(f"policy undefined at ({cell.col},{cell.row})") from None
        target = expected_landmark(grid, cell, action)
        library.get(target)
        legs[cell] = action, target
        cell = target

    rng = np.random.default_rng(cfg.perturbation.rng_seed)
    half_interval = cfg.control_step_m * cfg.observation_period / 2.0
    near_pass_m = min(grid.spacing_x, grid.spacing_y) / 2.0
    pose = landmark_position(grid, cfg.start).astype(np.float64)
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

    def along_track(res: MatchResult, obs_set: DescriptorSet, action: Action) -> float:
        """The along-track distance to ``res.target`` that a match reads; nan
        without a model."""
        if res.affine is None:
            return math.nan
        train_size = library.get(res.target).image_size
        return along_track_m(res.affine, obs_set.image_size, train_size, reg.gsd, action.displacement)

    def fly_leg(cell: LandmarkId, reach: float) -> MissionLog | float:
        """Fly the leg from ``cell`` on from the current pose; ``reach`` is
        the travel at which the arrival frame puts the target abeam, -inf
        without a solid seed match. Once the target is reached, returns the
        next leg's ``reach``; else the log of the mission that ends on it."""
        nonlocal pose
        action, target = legs[cell]
        target_pos = landmark_position(grid, target)
        step = cfg.control_step_m * np.array(action.displacement, dtype=np.float64)
        leg_budget = (
            float(np.linalg.norm(target_pos - pose)) + 2.0 * params.distance_threshold_m + LEG_SLACK_M
        )
        travelled = 0.0
        min_true = math.inf

        while travelled < leg_budget:
            if len(records) >= cfg.max_ticks:
                return end(MissionOutcome.TIMEOUT)
            pose = pose + step
            travelled += cfg.control_step_m
            min_true = min(min_true, float(np.linalg.norm(pose - target_pos)))
            rec = TickRecord(tick=len(records) + 1, x=float(pose[0]), y=float(pose[1]), action=action)
            records.append(rec)

            # reach - travelled is the predicted along-track distance: skip the
            # render while it exceeds half an interval
            if rec.tick % cfg.observation_period == 0 and reach - travelled <= half_interval:
                try:
                    obs = render_observation(world, reg, Pose(rec.x, rec.y), cfg.perturbation, rng=rng)
                except CoverageError:
                    break  # the craft can no longer observe this leg
                obs_set = build_descriptor_set(obs, params)
                attempt = rec.tick // cfg.observation_period
                # one RANSAC seed per attempt, for the target and any rival fit
                attempt_params = replace(params, rng_seed=params.rng_seed + attempt)
                res = match_images(obs_set, library.get(target), attempt_params, reg.gsd, target=target)
                rec.attempted = True
                rec.n_matches = res.n_matches
                rec.inliers = res.inliers
                rec.center_distance_m = res.center_distance_m
                along = along_track(res, obs_set, action)
                verdict = gate(res, along, half_interval, params)
                if verdict.solid:
                    reach = travelled + along
                if verdict is Gate.CLOSEST_APPROACH:
                    # re-rank the departure cell's neighbors, reusing this
                    # attempt's match of the target
                    rec.arrival = target
                    rec.confirmed = target_ranks_first(
                        obs_set, res, neighbors(grid, cell).values(), library.get, attempt_params, reg.gsd
                    )
                    if target == cfg.goal:
                        return -math.inf
                    # seed the next leg from this frame; its target was
                    # described before takeoff
                    next_action, next_target = legs[target]
                    seed = match_images(
                        obs_set, library.get(next_target), attempt_params, reg.gsd, target=next_target
                    )
                    along = along_track(seed, obs_set, next_action)
                    return along if gate(seed, along, half_interval, params).solid else -math.inf
        # the leg overran: recognition failed if the craft passed near the landmark
        if min_true <= near_pass_m:
            return end(MissionOutcome.MATCH_FAILURE, min_true)
        return end(MissionOutcome.TIMEOUT)

    cell, reach = cfg.start, -math.inf
    while cell != cfg.goal:
        ended = fly_leg(cell, reach)
        if isinstance(ended, MissionLog):
            return ended
        cell, reach = legs[cell][1], ended
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

    track = reg.world_to_pixel(np.array([(r.x, r.y) for r in log.records]).reshape(-1, 2)) * scale

    body = [svgplot.image_panel(small, 0, 0)]
    for lid in grid.all_landmarks():
        pos = landmark_position(grid, lid)
        x, y = to_svg(pos[0], pos[1])
        body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="none" stroke="#ffcf40" stroke-width="1"/>')
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in track)
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
