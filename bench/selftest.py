"""Quick self-test of the benchmark at a tiny size.

Runs every workload once untraced and once traced with ``--size tiny``
and checks that:

* the last line holds exactly ``correct``, ``attempted``, ``failed`` and
  ``metrics``, with every operation correct;
* the metrics are exactly those BENCHMARK.json lists, with their units;
* each workload's own metrics are present with their units;
* the correctness checks ran;
* the computed scan counts follow the per-item cost contract;
* without the package beside it, the benchmark fails without a result.

Run from the root of a checkout: ``python3 bench/selftest.py`` (or
``python3 -m pytest bench/selftest.py``). It takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Each workload's own metrics and their units.
DETAIL = {
    "build": {
        "setup_s": "s",
        "build_s.pq": "s",
        "build_s.rq": "s",
        "build_s.neq_kmeans": "s",
        "build_s.fuzzy2_neq": "s",
        "index_bytes_per_item": "B",
        "recall_at_20.pq": "ratio",
        "recall_at_20.rq": "ratio",
        "recall_at_20.neq_kmeans": "ratio",
        "recall_at_20.fuzzy2_neq": "ratio",
    },
    "serve": {
        "setup_s": "s",
        "index_bytes_per_item": "B",
        "load_peak_bytes_per_item": "B",
        "query_p50_ms": "ms",
        "query_p99_ms": "ms",
        "query_samples": "count",
        "query_qps": "1/s",
        "recall_at_20.pq": "ratio",
        "recall_at_20.fuzzy2_neq": "ratio",
    },
    "bootstrap": {
        "setup_s": "s",
        "eval_s": "s",
        "recall_at_20.pq": "ratio",
        "recall_at_20.neq_kmeans": "ratio",
        "recall_at_20.fuzzy2_neq": "ratio",
    },
    "tune": {
        "setup_s": "s",
        "tune_s": "s",
        "tune_cost": "mse",
        "tune_evaluations": "count",
        "recall_at_20.fuzzy2_neq": "ratio",
    },
}

#: Checks that must have run, per workload.
CHECKS = {
    "build": ("reload", "cost_contract", "scan_estimate"),
    "serve": ("reload", "cost_contract", "scan_estimate", "cli_ids"),
    "bootstrap": ("exact_truth", "report"),
    "tune": ("tune_cost", "grid"),
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
        "--seconds", "0", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def expect(cond: bool, message: str, errors: list[str]) -> None:
    if not cond:
        errors.append(message)


def check_run(workload: str, trace: int, spec: dict, errors: list[str]) -> None:
    where = f"{workload} trace={trace}"
    proc = run(workload, trace)
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys {sorted(result)}", errors)
    expect(result["correct"] is True and result["failed"] == 0, f"{where}: {report['failures']}", errors)
    expect(result["attempted"] >= 1, f"{where}: nothing attempted", errors)

    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"{where}: metrics {got} differ from BENCHMARK.json {want}", errors)
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{where}: {name} is not a number", errors)

    for kind in CHECKS[workload]:
        expect(report["checks"].get(kind, 0) > 0, f"{where}: check {kind} did not run", errors)
    expect(not report["checks_missing"], f"{where}: checks missing {report['checks_missing']}", errors)

    if not trace:
        detail = {name: m["unit"] for name, m in report["detail"].items()}
        expect(detail == DETAIL[workload], f"{where}: own metrics {detail}", errors)
        return
    values = {name: m["value"] for name, m in result["metrics"].items()}
    expect(values["trace.coverage"] > 0.5, f"{where}: spans cover {values['trace.coverage']:.2f}", errors)
    if workload == "serve":
        # Half the scanned items are pq's (8 lookups, no adds), half
        # fuzzy2_neq's (7 lookups, 1 add, 1 multiply).
        items = values["neq.scan_scores.items"]
        expect(items > 0, f"{where}: no scans recorded", errors)
        expect(values["neq.scan_scores.lookups"] == 7.5 * items, f"{where}: lookups {values}", errors)
        expect(values["neq.scan_scores.adds"] == 0.5 * items, f"{where}: adds", errors)
        expect(values["neq.scan_scores.multiplies"] == 0.5 * items, f"{where}: multiplies", errors)
        expect(values["persist.load_index.peak_bytes"] > 0, f"{where}: no load peak", errors)
    if workload in ("build", "bootstrap"):
        expect(values["clustering.kmeans.iters"] > 0, f"{where}: no k-means iterations", errors)
        expect(values["clustering.it2fpcm.iters"] > 0, f"{where}: no IT2FPCM iterations", errors)
    if workload == "tune":
        expect(values["tuner.objective.calls"] > 0, f"{where}: no objective calls", errors)


def check_alone(errors: list[str]) -> None:
    """A directory holding only BENCHMARK.json and bench/ must fail."""
    alone = BENCH_DIR / "_work" / "selftest-alone"
    shutil.rmtree(alone, ignore_errors=True)
    (alone / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", alone / "BENCHMARK.json")
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, alone / "bench" / path.name)
    try:
        proc = run("tune", 0, cwd=alone)
    finally:
        shutil.rmtree(alone, ignore_errors=True)
    expect(proc.returncode != 0, "without src/ the benchmark exited 0", errors)
    expect('"correct"' not in proc.stdout, "without src/ the benchmark printed a result", errors)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors: list[str] = []
    names = [w["name"] for w in spec["workloads"]]
    expect(sorted(names) == sorted(DETAIL), f"workloads {names}", errors)
    for workload in names:
        for trace in (0, 1):
            check_run(workload, trace, spec, errors)
    check_alone(errors)
    for message in errors:
        print("FAIL", message)
    print("selftest:", "ok" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


def test_benchmark_selftest():
    assert main() == 0


if __name__ == "__main__":
    sys.exit(main())
