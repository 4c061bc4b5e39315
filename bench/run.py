"""Benchmark of the fneq package: build, serve, bootstrap and tune.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload build --seed 0 --seconds 15 --trace 0

The benchmark imports ``fneq`` from ``src/`` of the checkout it sits in
and refuses to run without it. It makes its inputs from ``--seed``, runs
timed passes of the workload until they add up to ``--seconds`` (at
least one), checks every pass outside the timing and prints one JSON
object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off. With ``--trace 1`` the run alternates untraced and traced
passes, and the metrics are per layer: self time, calls and counts of
each traced ``fneq`` function per pass (plus the set-up done once), and
the tracing overhead. The line before the result holds the
workload's own metrics, the machine and the checks run; the same goes to
``bench/_out/`` with the spans of a traced run.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
#: Thread settings, pinned before numpy loads so that OpenBLAS sees them.
THREAD_ENV = {
    "FNEQ_THREADS": str(min(2, NPROC)),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Set-up repetitions per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 15


def _import_fneq():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "fneq" / "__init__.py").is_file():
        sys.exit(f"bench: no fneq package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fneq

    if Path(fneq.__file__).resolve().parent != SRC / "fneq":
        sys.exit(f"bench: imported fneq from {fneq.__file__}, not from {SRC}")
    return fneq


def machine_info(fneq, seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        openblas = "unknown"
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "threads": dict(THREAD_ENV),
        "thread_cap": fneq.evaluate.thread_cap(),
        "seed": seed,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "serve", "bootstrap", "tune"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input sizes; 'tiny' only exercises the code paths",
    )
    return parser.parse_args(argv)


def measured(wl) -> float:
    """Timed seconds so far; checks between passes do not count."""
    return sum(p["wall_s"] for p in wl.passes)


def run_untraced(wl, seconds):
    """Set-up SETUP_REPEATS times, then timed passes; returns ``setup_s``."""
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
    while not wl.passes or measured(wl) < seconds:
        result = wl.run()
        wl.check(result)
        wl.passes.append(result)
    return median(setup_times)


def run_traced(wl, seconds, tracer):
    """Set-up once traced, then untraced and traced passes in turn; the
    tracing overhead compares the medians of the two kinds."""
    tracer.active = True
    with tracer.span("bench.setup"):
        wl.setup()
    tracer.active = False
    untraced, roots = [], []
    while not roots or measured(wl) < seconds:
        if len(untraced) <= len(roots):
            result = wl.run()
            untraced.append(result["wall_s"])
        else:
            tracer.active = True
            with tracer.span("bench.pass") as root:
                result = wl.run()
            tracer.active = False
            roots.append(root)
        wl.check(result)
        wl.passes.append(result)
    return median(untraced), roots


def main(argv=None) -> int:
    args = parse_args(argv)
    fneq = _import_fneq()

    import layers
    import workloads
    from tracer import Tracer

    size = workloads.SIZES[args.size]
    ledger = workloads.Ledger()
    workdir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    outdir = BENCH_DIR / "_out"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    kwargs = {}
    if tracer is not None and args.workload == "tune":
        kwargs["trace_objective"] = lambda fn: tracer.wrap("tuner.objective", fn)
    wl = workloads.WORKLOADS[args.workload](args.seed, size, str(workdir), ledger, **kwargs)

    try:
        wl.prepare()
        if tracer is None:
            setup_s = run_untraced(wl, args.seconds)
            metrics, detail = wl.metrics(setup_s)
        else:
            layers.install(tracer, fneq)
            try:
                untraced_s, roots = run_traced(wl, args.seconds, tracer)
            finally:
                tracer.uninstall()
            metrics = layers.per_layer(tracer, roots, untraced_s, getattr(wl, "load_peak", None))
            detail = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    required = workloads.REQUIRED_CHECKS[args.workload]
    missing = [kind for kind in required if not ledger.checks.get(kind)]
    report = {
        "workload": args.workload,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(wl.passes),
        "pass_wall_s": [p["wall_s"] for p in wl.passes],
        "machine": machine_info(fneq, args.seed),
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "checks": ledger.checks,
        "checks_missing": missing,
        "failures": ledger.failures,
    }
    result = {
        "correct": not ledger.failed and not missing,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({**report, "result": result}, fh, indent=1)
    if tracer is not None:
        tracer.write(f"{stem}-spans.json")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
