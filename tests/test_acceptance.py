"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every criterion is deterministic: all randomness is seeded, so reruns
produce identical verdicts.
"""

import math
import time

import numpy as np
import pytest

from uasnav.cli import main
from uasnav.grid import LandmarkId, landmark_position, manhattan, neighbors, random_start
from uasnav.imagery import PerturbationSpec, Pose, render_observation
from uasnav.matching import build_descriptor_set, estimate_affine_ransac, match_images, rank_neighbors
from uasnav.navigator import MissionOutcome
from uasnav.policy import (
    TrainConfig,
    UASNAV_REFERENCE_MEAN_STEPS,
    enumerated_mean_manhattan,
    evaluate,
    greedy_policy,
    optimal_expected_reward,
    oracle_agreement,
    train,
)

CONVERGENCE_EPISODE_BUDGET = 200


def _verdict(capsys, n: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():  # the verdict line must survive pytest's capture
        print(f"\nACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def trained_reference(grid, rewards, goal):
    t0 = time.time()
    qtable, curve = train(grid, rewards, goal, TrainConfig())
    return qtable, curve, time.time() - t0


def test_criterion_1_policy_optimality(grid, rewards, goal, oracle_q, trained_reference, capsys):
    qtable, _, train_seconds = trained_reference
    t0 = time.time()
    policy = greedy_policy(qtable, grid)
    agreement = oracle_agreement(policy, oracle_q, grid)
    elapsed = train_seconds + (time.time() - t0)
    ok = agreement == 1.0 and elapsed < 30.0
    _verdict(capsys, 1, "policy-optimality", ok, f"oracle agreement {agreement:.1%} on 99 states, {elapsed:.1f}s")
    assert ok


def test_criterion_2_convergence_within_200_episodes(grid, rewards, goal, capsys):
    target = 0.95 * optimal_expected_reward(grid, rewards, goal)
    seeds = range(100, 110)
    converged = 0
    first_crossings = []
    for seed in seeds:
        _, curve = train(grid, rewards, goal, TrainConfig(episodes=250, rng_seed=seed))
        ma = curve.moving_average(20)
        hits = np.flatnonzero(~np.isnan(ma) & (ma >= target))
        crossing = curve.points[hits[0]].episode if hits.size else None
        first_crossings.append(crossing)
        if crossing is not None and crossing <= CONVERGENCE_EPISODE_BUDGET:
            converged += 1
    ok = converged >= 9
    _verdict(
        capsys,
        2,
        "convergence-within-200-episodes",
        ok,
        f"{converged}/10 seeds reach 95% of optimal reward by episode "
        f"{CONVERGENCE_EPISODE_BUDGET}; crossings {first_crossings}",
    )
    assert ok


def test_criterion_3_evaluation_steps(grid, rewards, goal, trained_reference, capsys):
    qtable, _, _ = trained_reference
    policy = greedy_policy(qtable, grid)
    eval_seed, episodes = 23, 100
    summary = evaluate(grid, rewards, policy, episodes=episodes, rng_seed=eval_seed)
    rng = np.random.default_rng(eval_seed)
    drawn_mean = float(np.mean([
        manhattan(random_start(grid, goal, rng), goal) for _ in range(episodes)
    ]))
    enumerated = enumerated_mean_manhattan(grid, goal)
    ok = summary.mean_steps == drawn_mean and summary.success_rate == 1.0
    _verdict(
        capsys,
        3,
        "evaluation-steps",
        ok,
        f"mean {summary.mean_steps:.4f} == drawn manhattan mean {drawn_mean:.4f}; "
        f"enumerated mean for goal ({goal.col},{goal.row}) = {enumerated:.4f}, "
        f"benchmark mean = {UASNAV_REFERENCE_MEAN_STEPS}",
    )
    assert ok


def test_criterion_4_affine_recovery(capsys):
    t0 = time.time()
    successes = 0
    trials = 100
    for trial in range(trials):
        rng = np.random.default_rng(4000 + trial)
        theta = math.radians(rng.uniform(-10.0, 10.0))
        tx, ty = rng.uniform(-40.0, 40.0, 2)
        c, s = math.cos(theta), math.sin(theta)
        truth = np.array([[c, -s, tx], [s, c, ty]])

        n_in, n_out = 80, 120  # 60% outliers
        src_in = rng.uniform(0.0, 640.0, (n_in, 2))
        dst_in = src_in @ truth[:, :2].T + truth[:, 2] + rng.normal(0.0, 0.25, (n_in, 2))
        src_out = rng.uniform(0.0, 640.0, (n_out, 2))
        dst_out = rng.uniform(0.0, 480.0, (n_out, 2))
        src = np.vstack([src_in, src_out])
        dst = np.vstack([dst_in, dst_out])
        model, _ = estimate_affine_ransac(src, dst, inlier_tol_px=2.0, iterations=200, rng_seed=trial)
        trans_err = float(np.abs(model.translation - truth[:, 2]).max())
        rot_err = abs(math.degrees(model.rotation - theta))
        if trans_err < 0.5 and rot_err < 0.5:
            successes += 1
    elapsed = time.time() - t0
    ok = successes >= 99 and elapsed < 10.0
    _verdict(capsys, 4, "affine-recovery", ok, f"{successes}/100 trials within 0.5 px / 0.5 deg, {elapsed:.1f}s")
    assert ok


def test_criterion_5_landmark_recognition_robustness(world_and_reg, grid, match_params, library, capsys):
    world, reg = world_and_reg
    master = np.random.default_rng(5000)
    trials = 200
    correct = 0
    for _ in range(trials):
        lid = LandmarkId(int(master.integers(grid.cols)), int(master.integers(grid.rows)))
        perturb = PerturbationSpec(
            gain=float(master.uniform(0.7, 1.4)),
            bias=float(master.uniform(-20.0, 20.0)),
            noise_sigma=float(master.uniform(0.0, 5.0)),
            rotation_jitter=math.radians(5.0),
            translation_jitter=5.0,
            rng_seed=int(master.integers(1 << 31)),
        )
        pos = landmark_position(grid, lid)
        obs = build_descriptor_set(render_observation(world, reg, Pose(pos[0], pos[1]), perturb), match_params)
        candidates = [(lid, library.get(lid))] + [
            (nid, library.get(nid)) for nid in neighbors(grid, lid).values() if nid is not None
        ]
        ranked = rank_neighbors([
            match_images(obs, dset, match_params, reg.gsd, target=nid) for nid, dset in candidates
        ])
        if ranked[0].target == lid:
            correct += 1
    ok = correct >= 190  # 95% of 200
    _verdict(capsys, 5, "landmark-recognition-robustness", ok, f"true landmark ranked first in {correct}/200 trials")
    assert ok


def test_criterion_6_end_to_end_missions(criterion_6_flights, capsys):
    # the 20 missions are drawn and flown, each timed, in the fixture
    good = 0
    worst_seconds = 0.0
    outcomes = []
    for start, goal, log, seconds in criterion_6_flights:
        worst_seconds = max(worst_seconds, seconds)
        hit = log.outcome == MissionOutcome.REACHED_GOAL and len(log.arrivals) == manhattan(start, goal)
        good += hit
        outcomes.append(log.outcome.value if not hit else "ok")
    ok = good >= 19 and worst_seconds < 60.0
    _verdict(
        capsys,
        6,
        "end-to-end-missions",
        ok,
        f"{good}/20 missions reached goal with arrival count == manhattan; "
        f"worst mission {worst_seconds:.1f}s; outcomes {outcomes}",
    )
    assert ok


def test_criterion_7_determinism(tmp_path, capsys):
    def run(args):
        assert main(args) == 0

    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        run(["build-env", "--set", f"run.output_dir={d}"])
        run(["train", "--set", f"run.output_dir={d}", "--set", "train.episodes=800"])
        run([
            "fly",
            "--set", f"run.output_dir={d}",
            "--set", "mission.start_col=4",
            "--set", "mission.start_row=5",
            "--set", "mission.gain=1.1",
            "--set", "mission.bias=-5",
            "--set", "mission.noise_sigma=3",
            "--set", "mission.rotation_jitter_rad=0.05",
            "--set", "mission.translation_jitter_m=2",
        ])
    capsys.readouterr()

    mismatches = []
    def compare(rel):
        a = (dirs[0] / rel).read_bytes()
        b = (dirs[1] / rel).read_bytes()
        if a != b:
            mismatches.append(rel)

    compare("world.ppm")
    compare("world.json")
    for col in range(10):
        for row in range(10):
            compare(f"landmarks/lm_{col}_{row}.ppm")
    compare("policy.txt")
    compare("curve.csv")
    compare("mission.csv")
    ok = not mismatches
    _verdict(
        capsys,
        7,
        "determinism",
        ok,
        "world + 100 landmark rasters, policy, curve, and mission CSV byte-identical"
        if ok else f"mismatched artifacts: {mismatches}",
    )
    assert ok
