"""Phase 2 closed loop: fly the learned policy over the raster world.

The craft moves at constant speed along the commanded cardinal direction
and periodically renders a (perturbed) observation. Arrival at the expected
next landmark is a perception event: the observation is matched against
that landmark's descriptor image, and the landmark counts as reached when
a solid match within the distance threshold reads it abeam, within half a
sampling interval, or past it. Renders wait until the view centre that
the last solid match read, dead-reckoned since, is within half an interval
of abeam; an arrival's reading carries into the next leg, and the first leg
renders every period until its first solid match. The pose is never snapped
to the lattice, so perception latency and jitter show up as honest drift;
at each arrival a four-way ranking pass over the departure cell's neighbors
re-confirms which landmark was reached.
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
    build_descriptor_set,
    match_images,
    target_ranks_first,
)
from .policy import PolicyTable
from .raster import GeoRegistration, RasterImage, to_gray
from . import matching, raster, svgplot

logger = logging.getLogger(__name__)


CONTROL_STEP_M = 1.0  # metres flown per tick
OBSERVATION_PERIOD = 2  # ticks per match attempt
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
    perturbation: PerturbationSpec = field(default_factory=PerturbationSpec)
    match_params: MatchParams = field(default_factory=MatchParams)

    def __post_init__(self):
        if self.start == self.goal:
            raise InvalidStateError("mission start equals goal")


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
            if str(entry["key"]) == key and (kps.dtype, desc.dtype) == (np.float64, np.float32) and (
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


def gate(
    res: MatchResult, direction: tuple[float, float], half_interval: float, params: MatchParams
) -> Gate:
    """The whole arrival rule, on one match of a leg flown along the unit
    world vector ``direction``. A solid match (a model and at least
    ``min_inliers`` inliers) is TOO_FAR beyond ``distance_threshold_m``;
    within it, it is the CLOSEST_APPROACH once its along-track reading
    (``-(res.offset_m @ direction)`` meters, negative past abeam) is within
    ``half_interval`` (half a sampling interval) of abeam or past it, since
    on a straight leg abeam is the closest approach; else it is CLOSING_IN.
    """
    if res.affine is None:
        return Gate.NO_MODEL
    if res.inliers < params.min_inliers:
        return Gate.FEW_INLIERS
    if res.center_distance_m > params.distance_threshold_m:
        return Gate.TOO_FAR
    if -(res.offset_m @ direction) <= half_interval:
        return Gate.CLOSEST_APPROACH
    return Gate.CLOSING_IN


def run_mission(
    world: RasterImage,
    reg: GeoRegistration,
    grid: GridSpec,
    cfg: MissionConfig,
    library: LandmarkLibrary,
) -> MissionLog:
    """Fly from start to goal under the policy; deterministic given seeds.

    Before takeoff the policy is walked once from the start to the goal,
    and each leg's target is described; a route cell without a policy
    entry, a command off the grid or a route that returns to a cell it
    already left raises ``PolicyInconsistencyError`` before the first
    render. The flight is then one pass over the walked legs.

    Each leg starts from the true, drifted pose of the last arrival. Each
    tick advances the pose by ``CONTROL_STEP_M`` along the commanded
    cardinal direction, and the estimate ``est`` with it. ``est`` is the
    view centre that the latest solid match read: its target's position
    plus ``MatchResult.offset_m``, in world meters like every position
    here. Every ``OBSERVATION_PERIOD`` ticks an observation is rendered
    and matched against the target, unless the prediction, ``est``'s
    along-track distance to the target, exceeds half a sampling interval;
    so a leg renders at the observation tick nearest its predicted abeam.
    ``est`` is None until the mission's first solid match, and the first
    leg renders every period until then.
    The ``gate`` verdict decides each match: a solid one resets ``est``;
    CLOSEST_APPROACH arrives, and its ``est`` carries into the next leg.

    A leg that overruns its travel budget, or whose jittered footprint
    leaves the world raster, ends the mission in MATCH_FAILURE if the craft
    passed near the landmark (recognition failed), else TIMEOUT.
    """
    grid.check(cfg.start)
    grid.check(cfg.goal)
    params = cfg.match_params
    if library.params.max_keypoints != params.max_keypoints:
        # the library's descriptor sets were detected with its own cap
        raise InvalidStateError(
            f"landmark library describes with max_keypoints={library.params.max_keypoints}, "
            f"mission match params ask for {params.max_keypoints}"
        )

    # describe each leg's target before takeoff, so that no attempt pays
    # for a cold fill of its target
    legs: dict[LandmarkId, tuple[Action, LandmarkId]] = {}
    cell = cfg.start
    while cell != cfg.goal:
        if cell in legs:
            raise PolicyInconsistencyError(f"policy route revisits ({cell.col},{cell.row})")
        try:
            action = cfg.policy.action_at(cell)
        except KeyError:
            raise PolicyInconsistencyError(f"policy undefined at ({cell.col},{cell.row})") from None
        target = expected_landmark(grid, cell, action)
        library.get(target)
        legs[cell] = action, target
        cell = target

    rng = np.random.default_rng(cfg.perturbation.rng_seed)
    half_interval = CONTROL_STEP_M * OBSERVATION_PERIOD / 2.0
    near_pass_m = min(grid.spacing_x, grid.spacing_y) / 2.0
    pose = landmark_position(grid, cfg.start).astype(np.float64)
    records: list[TickRecord] = []
    outcome, nearest_miss = MissionOutcome.REACHED_GOAL, None
    est = None  # the view centre the last solid match read, dead-reckoned since
    for cell, (action, target) in legs.items():
        target_pos = landmark_position(grid, target)
        step = CONTROL_STEP_M * np.array(action.displacement, dtype=np.float64)
        leg_budget = (
            float(np.linalg.norm(target_pos - pose)) + 2.0 * params.distance_threshold_m + LEG_SLACK_M
        )
        travelled, min_true = 0.0, math.inf
        while travelled < leg_budget:
            pose = pose + step
            if est is not None:
                est = est + step
            travelled += CONTROL_STEP_M
            min_true = min(min_true, float(np.linalg.norm(pose - target_pos)))
            rec = TickRecord(tick=len(records) + 1, x=float(pose[0]), y=float(pose[1]), action=action)
            records.append(rec)
            # no render while est reads the target more than half an interval ahead
            if rec.tick % OBSERVATION_PERIOD != 0 or (
                est is not None and (target_pos - est) @ action.displacement > half_interval
            ):
                continue
            try:
                obs = render_observation(world, reg, Pose(rec.x, rec.y), cfg.perturbation, rng=rng)
            except CoverageError:
                leg_budget = travelled  # the craft can no longer observe this leg: the loop ends
                continue
            obs_set = build_descriptor_set(obs, params)
            attempt = rec.tick // OBSERVATION_PERIOD
            # one RANSAC seed per attempt, for the target and any rival fit
            attempt_params = replace(params, rng_seed=params.rng_seed + attempt)
            res = match_images(obs_set, library.get(target), attempt_params, reg.gsd, target=target)
            rec.attempted = True
            rec.n_matches = res.n_matches
            rec.inliers = res.inliers
            rec.center_distance_m = res.center_distance_m
            verdict = gate(res, action.displacement, half_interval, params)
            if verdict.solid:
                est = target_pos + res.offset_m
            if verdict is Gate.CLOSEST_APPROACH:
                # re-rank the departure cell's neighbors, reusing this
                # attempt's match of the target
                rec.arrival = target
                rec.confirmed = target_ranks_first(
                    obs_set, res, neighbors(grid, cell).values(), library.get, attempt_params, reg.gsd
                )
                break
        else:
            # the leg ended short: recognition failed if the craft passed near the landmark
            if min_true <= near_pass_m:
                outcome, nearest_miss = MissionOutcome.MATCH_FAILURE, min_true
            else:
                outcome = MissionOutcome.TIMEOUT
            break
    return MissionLog(
        start=cfg.start,
        goal=cfg.goal,
        records=records,
        outcome=outcome,
        distance_flown_m=len(records) * CONTROL_STEP_M,
        nearest_miss_m=nearest_miss,
    )


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
