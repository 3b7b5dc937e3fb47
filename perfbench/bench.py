"""The uasnav workloads, their seeded inputs, and the end-to-end metrics.

Each workload is a closed loop of missions run one after another in a
single process. Inputs are drawn from the workload seed before anything
is timed; uasnav only receives the generated inputs and
is called through its public functions.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from uasnav import cli, config, imagery, matching, navigator, policy
from uasnav.grid import GridSpec, LandmarkId, RewardSpec, manhattan, neighbors

import tracing

# Missions whose attempts make up the behaviour digest.
DIGEST_OPS = 1


@dataclass
class OpResult:
    """One mission: wall-clock bounds, one digest tuple per
    attempt (matches, inliers, center distance, arrival, confirmed, as the
    strings ``mission.csv`` holds), and whether the operation succeeded."""

    start: float
    end: float
    attempts: list[tuple[str, ...]] = field(default_factory=list)
    ranked: list[bool] = field(default_factory=list)  # attempt ran the neighbour ranking
    ok: bool = False
    error: str | None = None

    @property
    def confirmed(self) -> int:
        return sum(a[4] == "1" for a in self.attempts)


def _cd(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


# -- inputs -----------------------------------------------------------------


def _intensity(rng: np.random.Generator) -> dict[str, float]:
    """Gain, bias and noise as acceptance criteria 5 and 6 draw them."""
    return {
        "gain": float(rng.uniform(0.7, 1.4)),
        "bias": float(rng.uniform(-20.0, 20.0)),
        "noise_sigma": float(rng.uniform(0.0, 5.0)),
    }


def fly_identity_inputs(seed: int, rounds: int = 4) -> list[LandmarkId]:
    """Start cells diagonal to the configured goal, so every mission flies
    one 40 m and one 30 m leg and missions are comparable in length. Each
    round of four missions visits the four diagonal cells in a seeded
    order, so every run flies the same mix of routes."""
    goal = config.load_config().goal()
    diagonal = [LandmarkId(goal.col + dc, goal.row + dr) for dc in (-1, 1) for dr in (-1, 1)]
    rng = np.random.default_rng([seed, 1])
    return [diagonal[int(i)] for _ in range(rounds) for i in rng.permutation(len(diagonal))]


def fly_perturbed_inputs(seed: int, n: int = 3) -> list[tuple[LandmarkId, LandmarkId, imagery.PerturbationSpec]]:
    """Start/goal pairs one diagonal step apart inside the lattice border,
    so every departure cell has four neighbours to rank, with the
    perturbation ranges of acceptance criterion 6."""
    grid = GridSpec()
    rng = np.random.default_rng([seed, 2])
    out = []
    for _ in range(n):
        start = LandmarkId(int(rng.integers(1, grid.cols - 1)), int(rng.integers(1, grid.rows - 1)))
        dc, dr = (int(v) for v in rng.choice([-1, 1], size=2))
        if not 1 <= start.col + dc <= grid.cols - 2:
            dc = -dc
        if not 1 <= start.row + dr <= grid.rows - 2:
            dr = -dr
        perturb = imagery.PerturbationSpec(
            **_intensity(rng),
            rotation_jitter=math.radians(float(rng.uniform(0.0, 5.0))),
            translation_jitter=2.0,
            rng_seed=int(rng.integers(1 << 31)),
        )
        out.append((start, LandmarkId(start.col + dc, start.row + dr), perturb))
    return out


INPUTS = {
    "fly-identity": fly_identity_inputs,
    "fly-perturbed": fly_perturbed_inputs,
}


# -- set-up -----------------------------------------------------------------


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _setup_fly_identity(workdir: Path, inputs) -> dict:
    """``uasnav build-env`` then ``uasnav train`` into a fresh directory."""
    out_dir = workdir / "cli"
    for command in ("build-env", "train"):
        code, text = _cli([command, "--set", f"run.output_dir={out_dir}"])
        if code != 0:
            raise RuntimeError(f"uasnav {command} exited {code}: {text.strip().splitlines()[-1:]}")
    return {"out_dir": out_dir, "goal": config.load_config().goal()}


def _warm_library(world, reg, grid: GridSpec, landmarks) -> navigator.LandmarkLibrary:
    library = navigator.LandmarkLibrary(world, reg, grid, matching.MatchParams())
    for lid in landmarks:
        library.get(lid)
    return library


def _setup_fly_perturbed(workdir: Path, inputs) -> dict:
    """World, one value-iteration policy per goal (as acceptance criterion 6
    does), and a library holding every landmark the missions look up."""
    grid = GridSpec()
    world, reg = imagery.build_world(grid, imagery.WorldSpec())
    policies = {}
    route_landmarks: list[LandmarkId] = []
    for start, goal, _ in inputs:
        if goal not in policies:
            policies[goal] = policy.greedy_policy(policy.value_iteration(grid, RewardSpec(), goal), grid)
        cell = start
        while cell != goal:  # targets and the neighbours ranked at each arrival
            route_landmarks += [n for n in neighbors(grid, cell).values() if n is not None]
            cell = navigator.expected_landmark(grid, cell, policies[goal].action_at(cell))
    library = _warm_library(world, reg, grid, dict.fromkeys(route_landmarks))
    return {"grid": grid, "world": world, "reg": reg, "policies": policies, "library": library}


# -- operations -------------------------------------------------------------


def _mission_attempts(result: OpResult, records) -> None:
    for r in records:
        if not r.attempted:
            continue
        arrival = f"{r.arrival.col},{r.arrival.row}" if r.arrival else ""
        confirmed = "" if r.confirmed is None else str(int(r.confirmed))
        result.attempts.append((str(r.n_matches), str(r.inliers), _cd(r.center_distance_m), arrival, confirmed))
        result.ranked.append(bool(arrival))


def _op_fly_identity(ctx: dict, start: LandmarkId, result: OpResult) -> None:
    """One in-process ``uasnav fly`` call; the attempts are read back from
    the ``mission.csv`` it writes."""
    out_dir = ctx["out_dir"]
    (out_dir / "mission.csv").unlink(missing_ok=True)
    code, text = _cli([
        "fly",
        "--set", f"run.output_dir={out_dir}",
        "--set", f"mission.start_col={start.col}",
        "--set", f"mission.start_row={start.row}",
    ])
    result.end = time.perf_counter()
    legs = manhattan(start, ctx["goal"])
    status = text.strip().splitlines()[-1] if text.strip() else ""
    with open(out_dir / "mission.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if row["attempted"] != "1":
            continue
        arrival = f"{row['arrival_col']},{row['arrival_row']}" if row["arrival_col"] else ""
        result.attempts.append(
            (row["matches"], row["inliers"], row["center_distance_m"], arrival, row["confirmed"])
        )
        result.ranked.append(bool(arrival))
    arrivals = sum(result.ranked)
    result.ok = (
        code == 0
        and status == f"status=ok outcome=reached_goal arrivals={legs}"
        and arrivals == legs
        and (out_dir / "mission.svg").stat().st_size > 0
    )
    if not result.ok:
        result.error = f"exit {code}, {status!r}, {arrivals} arrivals in mission.csv for {legs} legs"


def _op_fly_perturbed(ctx: dict, mission, result: OpResult) -> None:
    start, goal, perturb = mission
    cfg = navigator.MissionConfig(
        start=start, goal=goal, policy=ctx["policies"][goal],
        perturbation=perturb, match_params=matching.MatchParams(),
    )
    log = navigator.run_mission(ctx["world"], ctx["reg"], ctx["grid"], cfg, library=ctx["library"])
    result.end = time.perf_counter()
    _mission_attempts(result, log.records)
    result.ok = (
        log.outcome == navigator.MissionOutcome.REACHED_GOAL
        and len(log.arrivals) == manhattan(start, goal)
    )
    if not result.ok:
        result.error = f"outcome {log.outcome.value} with {len(log.arrivals)} arrivals"


SETUP = {
    "fly-identity": _setup_fly_identity,
    "fly-perturbed": _setup_fly_perturbed,
}
OPS = {
    "fly-identity": _op_fly_identity,
    "fly-perturbed": _op_fly_perturbed,
}


# -- running ----------------------------------------------------------------


@dataclass
class RunResult:
    workload: str
    setup_s: list[float]
    ops: list[OpResult]
    recorder: tracing.Recorder
    peak_rss_mb: float

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops)

    def digest(self) -> str:
        lines = [f"{i}:" + "|".join(a) for i, op in enumerate(self.ops[:DIGEST_OPS]) for a in op.attempts]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool, workdir: Path, setup_reps: int = 3
) -> RunResult:
    """Set up ``setup_reps`` times, then run operations for about
    ``seconds``: at least the digest operations, and a further one only
    while it would, at the median operation time so far, end no more
    than half an operation after the time is up."""
    inputs = INPUTS[workload](seed)
    recorder = tracing.Recorder(traced)
    setup_times = []
    ops: list[OpResult] = []
    with recorder:
        for _ in range(setup_reps):
            ctx = None  # let the previous set-up's world and library go first
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            gc.collect()
            t0 = time.perf_counter()
            ctx = SETUP[workload](workdir, inputs)
            setup_times.append(time.perf_counter() - t0)

        gc.collect()
        op = OPS[workload]

        def run_op() -> None:
            recorder.op = len(ops)
            result = OpResult(start=time.perf_counter(), end=0.0)
            try:
                op(ctx, inputs[len(ops) % len(inputs)], result)
            except Exception:  # a raising operation is a failed one; keep measuring
                result.end = time.perf_counter()
                result.ok = False
                result.error = traceback.format_exc(limit=3)
            ops.append(result)
            if result.error:
                print(f"operation {len(ops) - 1} failed: {result.error}", file=sys.stderr)

        began = time.perf_counter()
        while len(ops) < DIGEST_OPS or (
            time.perf_counter() - began + statistics.median(op.end - op.start for op in ops) / 2 < seconds
        ):
            run_op()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return RunResult(workload, setup_times, ops, recorder, peak)


# -- metrics ----------------------------------------------------------------


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def attempt_times(run: RunResult) -> tuple[list[float], list[float], str | None]:
    """Milliseconds per attempt, split into attempts without and with the
    neighbour ranking. An attempt runs from its ``render_observation``
    call to the next one, or to the end of the mission's flight loop
    (``run_mission`` returning). Returns an error text when the clock
    reads do not line up with the attempts."""
    renders, ends = run.recorder.attempt_marks()
    starts: dict[object, list[float]] = {}
    for op, t in renders:
        starts.setdefault(op, []).append(t)
    mission_end = dict(ends)
    plain, ranked = [], []
    for i, op in enumerate(run.ops):
        if not op.ok:
            continue
        t = starts.get(i, [])
        if len(t) != len(op.attempts):
            return [], [], f"operation {i}: {len(t)} renders for {len(op.attempts)} attempts"
        bounds = t[1:] + [mission_end.get(i, op.end)]
        for t0, t1, rank in zip(t, bounds, op.ranked):
            (ranked if rank else plain).append((t1 - t0) * 1e3)
    return plain, ranked, None


def end_to_end_metrics(run: RunResult) -> dict[str, float]:
    """Timings are upper percentiles: on a shared host, phases in which the
    machine runs idle-fast pull the lower half of a run's samples down, so
    the 75th and 90th percentiles repeat better from run to run than the
    median or the mean."""
    attempts, ranked, _ = attempt_times(run)
    good = [op for op in run.ops if op.ok]
    n_ranked = sum(sum(op.ranked) for op in run.ops)
    confirmed = sum(op.confirmed for op in run.ops)
    return {
        "setup_s": statistics.median(run.setup_s),
        "attempt_ms_p75": _pct(attempts, 75),
        "attempt_ms_p90": _pct(attempts, 90),
        "arrival_ms_p75": _pct(ranked, 75),
        "s_per_mission_p75": _pct([op.end - op.start for op in good], 75),
        "recognition_ms_p75": _pct(ranked, 75),
        "recognition_ms_p90": _pct(ranked, 90),
        "goal_rate": len(good) / len(run.ops),
        "confirmed_rate": confirmed / n_ranked if n_ranked else 0.0,
        "top1_rate": confirmed / n_ranked if n_ranked else 0.0,
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer_metrics(run: RunResult) -> dict[str, float]:
    metrics = tracing.per_layer_metrics(run.recorder.spans, len(run.ops))
    # tracing overhead = this value minus attempt_ms_p75 of an untraced run
    metrics["trace.attempt_ms_p75"] = end_to_end_metrics(run)["attempt_ms_p75"]
    return metrics
