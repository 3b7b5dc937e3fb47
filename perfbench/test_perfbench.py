"""Self-tests of the benchmark harness (not part of the uasnav suite).

    python3 -m pytest perfbench -q

The workload tests run one set-up and the digest mission of each
workload, traced and untraced, which takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_uasnav()

import bench  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(bench.INPUTS) == set(bench.SETUP) == set(bench.OPS) == set(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    make = bench.INPUTS[workload]
    assert make(7) == make(7)
    assert any(make(7) != make(seed) for seed in range(8, 12))


def _uasnav_bindings() -> dict[tuple[str, str], object]:
    modules = [m for n, m in sys.modules.items() if n == "uasnav" or n.startswith("uasnav.")]
    out = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    out[("LandmarkLibrary", "get")] = bench.navigator.LandmarkLibrary.__dict__["get"]
    return out


@pytest.mark.parametrize("traced", [False, True])
def test_recorder_restores_original_functions(traced):
    before = _uasnav_bindings()
    recorder = tracing.Recorder(traced)
    with recorder:
        assert bench.navigator.render_observation is not before[("uasnav.navigator", "render_observation")]
        assert bench.imagery.render_observation is not before[("uasnav.imagery", "render_observation")]
        if traced:
            assert bench.matching.to_gray is not before[("uasnav.matching", "to_gray")]
            assert bench.navigator.LandmarkLibrary.__dict__["get"] is not before[("LandmarkLibrary", "get")]
    after = _uasnav_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each workload once untraced and once traced: one set-up and the
    digest operations only."""
    out = {}
    for workload in run.WORKLOADS:
        for traced in (False, True):
            workdir = tmp_path_factory.mktemp(f"{workload}-{int(traced)}")
            out[workload, traced] = bench.run_workload(workload, 0, 0.0, traced, workdir, setup_reps=1)
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_runs_have_the_same_digest(runs, workload):
    untraced, traced = runs[workload, False], runs[workload, True]
    assert len(untraced.ops) == bench.DIGEST_OPS == len(traced.ops)
    assert untraced.failed == 0 == traced.failed
    assert untraced.digest() == traced.digest()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_digest_matches_the_pinned_one(runs, workload):
    # A change that alters behaviour on purpose updates digests.json.
    assert runs[workload, False].digest() == run.pinned_digest(workload, 0)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_metric_names_match_benchmark_json(runs, workload):
    e2e = bench.end_to_end_metrics(runs[workload, False])
    layers = bench.per_layer_metrics(runs[workload, True])
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]] == list(run.declared_units(0))
    assert list(layers) == [m["name"] for m in SPEC["per_layer"]] == list(run.declared_units(1))
    assert all(value > 0 for value in e2e.values())
    assert bench.attempt_times(runs[workload, False])[2] is None


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fly-identity", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench"]
