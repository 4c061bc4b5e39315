"""Bootstrap recall benchmark across index types.

Per iteration, the codebooks are retrained on a with-replacement
resample of the items and the original corpus is re-encoded and scanned
against its exact ground truth. Metric and curve CSVs land next to this
script in ``bench_out/``. The last lines pair each NEQ mode's recall
with pq's, iteration by iteration.
"""

from pathlib import Path

import numpy as np

from fneq import (
    Dataset,
    EvalConfig,
    QuerySet,
    bootstrap_eval,
    pad_to_multiple,
    write_curve_csv,
    write_metrics_csv,
)
from fneq.clustering import ClusteringParams

N, DIM, M, K_STAR, T = 4096, 32, 4, 16, 10
ITERATIONS = 3

rng = np.random.default_rng(55)
directions = rng.normal(size=(N, DIM))
directions /= np.linalg.norm(directions, axis=1, keepdims=True)
items = directions * rng.lognormal(0.0, 0.8, size=N)[:, None]
queries = rng.normal(size=(50, DIM))

out_dir = Path(__file__).parent / "bench_out"
out_dir.mkdir(exist_ok=True)

reports = []
for mode in ("pq", "rq", "neq_kmeans", "fuzzy2_neq"):
    m_prime = 0 if mode in ("pq", "rq") else 1
    data = items if m_prime == 0 else pad_to_multiple(items, M - m_prime)
    qs = queries if m_prime == 0 else pad_to_multiple(queries, M - m_prime)
    config = EvalConfig(
        dataset=Dataset(data),
        queries=QuerySet(qs),
        mode=mode,
        m=M,
        m_prime=m_prime,
        k_star=K_STAR,
        params=ClusteringParams(seed=0),
        truth_depth=T,
        item_counts=(512, 1024, 2048, 4096),
        dataset_label="synthetic-lognorm",
    )
    report = bootstrap_eval(config, iterations=ITERATIONS, seed=9)
    reports.append(report)
    write_curve_csv(out_dir / f"curve_{mode}.csv", report.curve)
    print(f"{mode:12s} recall={report.recall_mean:.4f} (+/- {report.recall_std:.4f}) "
          f"f1={report.f1_mean:.4f} time/iter={report.time_mean:.2f}s")
    print(f"{'':12s} curve: " + "  ".join(f"{n}:{r:.3f}" for n, r in report.curve))

# Every mode resamples the same rows at seed 9, so iteration i of one mode
# pairs with iteration i of another.
print("\npaired recall difference against pq, over the same resamples:")
pq_recalls = np.array(reports[0].recalls)
for report in reports[2:]:
    diff = np.array(report.recalls) - pq_recalls
    print(f"{report.method:12s} {diff.mean():+.4f} (+/- {diff.std(ddof=1):.4f} sd), "
          f"{int((diff >= 0).sum())} of {diff.size} >= 0")

write_metrics_csv(out_dir / "metrics.csv", reports)
print(f"\nwrote {out_dir}/metrics.csv and per-method curve CSVs")
