"""Benchmark entry point.

    python3 perfbench/run.py --workload fly-identity --seed 3 --seconds 10 --trace 0

Runs one workload from ``BENCHMARK.json`` against the uasnav sources in
``src/`` of the checkout that holds this file, and prints, in order: the
environment, the behaviour digest, and as the last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
Exits 2 without a result when the sources or an argument are missing,
and 1 when the computed metrics differ from those ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import os

# One BLAS thread on both sides of every comparison; set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("fly-identity", "fly-perturbed")


def import_uasnav():
    """Put the checkout's ``src`` first on the path and import uasnav from
    it; any other installed copy would measure the wrong code."""
    if not (SRC / "uasnav" / "__init__.py").is_file():
        print(f"error: no uasnav sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import uasnav

    if Path(uasnav.__file__).resolve().parent != SRC / "uasnav":
        print(f"error: imported uasnav from {uasnav.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return uasnav


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int) -> dict:
    import platform

    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_threads_env": BLAS_THREADS,
    }


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def pinned_digest(workload: str, seed: int) -> str | None:
    with open(HERE / "digests.json") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_uasnav()
    import bench

    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    try:
        run = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain, ranked, mismatch = bench.attempt_times(run)
    if mismatch:
        print(f"error: {mismatch}", file=sys.stderr)
    metrics = bench.per_layer_metrics(run) if args.trace else bench.end_to_end_metrics(run)
    units = declared_units(args.trace)
    if list(metrics) != list(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json", file=sys.stderr)
        return 1

    digest = run.digest()
    pinned = pinned_digest(args.workload, args.seed)
    verdict = "unpinned" if pinned is None else ("match" if pinned == digest else "mismatch")
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    print("setup_s reps " + " ".join(f"{t:.3f}" for t in run.setup_s))
    print(f"samples missions={len(run.ops)} attempts={len(plain)} arrivals={len(ranked)}")
    print(f"digest {digest} pinned {pinned or '-'} {verdict} (first {bench.DIGEST_OPS} operations)")
    print(json.dumps({
        "correct": run.failed == 0 and mismatch is None,
        "attempted": len(run.ops),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
