"""Ground-truth oracle, retrieval metrics and the benchmark harness.

The harness mirrors the reported methodology: training items are
resampled with replacement per iteration, the index is retrained, and
recall/precision/F1 of the approximate top-t against the exact top-t
are averaged over queries; means and standard deviations are reported
across iterations together with per-iteration wall-clock times and a
recall-vs-item-count curve.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import FuzzyMeasure
from .clustering import ClusteringParams
from .core import Dataset, QuerySet, _frozen
from .errors import InvalidInputError
from .neq import IndexArtifact, reencode, scan_scores, select_top_k, train_index

#: Item counts used for recall curves when the dataset is large enough.
DEFAULT_ITEM_COUNTS = (2048, 4096, 8192, 16384, 32768)

METRICS_HEADER = ("method", "dataset", "items", "recall", "precision", "f1", "time_s", "std")
CURVE_HEADER = ("items", "recall")


def thread_cap() -> int:
    """Worker cap from ``FNEQ_THREADS`` (0 or unset means auto)."""
    raw = os.environ.get("FNEQ_THREADS", "0").strip() or "0"
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"FNEQ_THREADS={raw!r} is not an integer") from exc
    if cap < 0:
        raise InvalidInputError("FNEQ_THREADS must be non-negative")
    return cap if cap > 0 else (os.cpu_count() or 1)


@dataclass(frozen=True)
class GroundTruth:
    """Exact top-t ids per query, computed by exhaustive scan."""

    ids: np.ndarray
    t: int

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        if ids.ndim != 2 or ids.shape[1] != self.t:
            raise InvalidInputError("ids must be a (queries, t) matrix")
        object.__setattr__(self, "ids", _frozen(ids))


def exact_topk(dataset: Dataset, queries: QuerySet, t: int) -> GroundTruth:
    """Exhaustive exact top-t by true inner product, ties by ascending id."""
    if t < 1 or t > dataset.n:
        raise InvalidInputError(f"t={t} must be within [1, {dataset.n}]")
    if queries.count and queries.dim != dataset.dim:
        raise InvalidInputError("queries and dataset disagree on dimensionality")
    rows = [select_top_k(s, t) for s in queries.queries @ dataset.items.T]
    ids = np.stack(rows) if rows else np.empty((0, t), dtype=np.int64)
    return GroundTruth(ids=ids, t=t)


def recall(retrieved, relevant) -> float:
    """|retrieved intersect relevant| / |relevant|."""
    relevant = set(relevant)
    if not relevant:
        raise InvalidInputError("relevant set must be non-empty")
    return len(set(retrieved) & relevant) / len(relevant)


def precision(retrieved, relevant) -> float:
    """|retrieved intersect relevant| / |retrieved|."""
    retrieved = set(retrieved)
    if not retrieved:
        raise InvalidInputError("retrieved set must be non-empty")
    return len(retrieved & set(relevant)) / len(retrieved)


def f1(p: float, r: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if p < 0 or r < 0:
        raise InvalidInputError("precision and recall must be non-negative")
    if p + r == 0:
        return 0.0
    return 2.0 * p * r / (p + r)


def running_time(run) -> float:
    """Wall-clock seconds of ``run()`` on the monotonic clock."""
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def _checked_counts(item_counts, t: int, n: int) -> list[int]:
    """Curve item counts as ints: strictly ascending, from ``t`` to ``n``."""
    counts = [int(nc) for nc in item_counts]
    if not counts or any(b <= a for a, b in zip(counts, counts[1:])):
        raise InvalidInputError("item counts must be strictly ascending")
    if counts[0] < t:
        raise InvalidInputError(f"item counts must be at least t={t}")
    if counts[-1] > n:
        raise InvalidInputError("item counts exceed the available items")
    return counts


def recall_item_curve(
    index: IndexArtifact,
    dataset: Dataset,
    queries: QuerySet,
    item_counts,
    t: int,
) -> list[tuple[int, float]]:
    """Recall of approximate vs exact top-t over growing item prefixes.

    For each count ``N`` the first ``N`` items form the candidate pool
    (callers shuffle or bootstrap the dataset beforehand when sampling
    is wanted); the index must be aligned row-for-row with ``dataset``.

    Each query is scanned once, over the largest count; every smaller
    count reads a prefix of those scores, which equals a scan of that
    prefix because the scan is elementwise. Each count's truth is the
    exact top-t of its own prefix, from that prefix's own product: a
    slice of a wider product can round differently.
    """
    counts = _checked_counts(item_counts, t, min(dataset.n, index.n))
    qs = queries.queries
    truths = [[select_top_k(s, t) for s in qs @ dataset.items[:count].T] for count in counts]
    values = [[] for _ in counts]
    for i, q in enumerate(qs):
        scores = scan_scores(q, index, limit=counts[-1])
        for truth, count, vals in zip(truths, counts, values):
            vals.append(recall(select_top_k(scores[:count], t), truth[i]))
    return [(count, float(np.mean(vals)) if vals else 0.0) for count, vals in zip(counts, values)]


@dataclass(frozen=True)
class EvalConfig:
    """One benchmark setting: data, index configuration and truth depth.

    ``retrieved_k`` defaults to the truth depth, which makes precision
    equal recall; set it apart to measure them independently.
    """

    dataset: Dataset
    queries: QuerySet
    mode: str
    m: int
    m_prime: int
    k_star: int
    params: ClusteringParams
    truth_depth: int = 20
    retrieved_k: int | None = None
    measure: FuzzyMeasure | None = None
    item_counts: tuple[int, ...] | None = None
    method_label: str | None = None
    dataset_label: str = "synthetic"

    @property
    def k(self) -> int:
        return self.truth_depth if self.retrieved_k is None else self.retrieved_k


@dataclass(frozen=True)
class EvalReport:
    """Mean/std metrics across bootstrap iterations plus the curve."""

    method: str
    dataset_label: str
    items: int
    iterations: int
    recall_mean: float
    precision_mean: float
    f1_mean: float
    recall_std: float
    precision_std: float
    f1_std: float
    running_time_seconds: tuple[float, ...]
    recalls: tuple[float, ...]
    precisions: tuple[float, ...]
    f1s: tuple[float, ...]
    curve: tuple[tuple[int, float], ...]

    @property
    def time_mean(self) -> float:
        return float(np.mean(self.running_time_seconds))


def _query_metrics(index, truth: GroundTruth, queries: QuerySet, k: int) -> np.ndarray:
    """One (recall, precision, F1) row per query for the index's top-k."""
    rows = np.empty((queries.count, 3))
    for i, q in enumerate(queries.queries):
        approx = select_top_k(scan_scores(q, index), k)
        r = recall(approx, truth.ids[i])
        p = precision(approx, truth.ids[i])
        rows[i] = r, p, f1(p, r)
    return rows


def bootstrap_eval(config: EvalConfig, iterations: int = 10, seed: int = 0) -> EvalReport:
    """Per iteration: resample the training items with replacement, fit
    the codebooks on the resample, then encode and evaluate the original
    corpus against its exact ground truth. Means and stds are reported
    across iterations.

    Per-iteration wall time covers codebook training, corpus encoding
    and the query scan. Fixing ``seed`` fixes the resamples and the
    training seeds, so the report is reproducible.
    """
    if iterations < 1:
        raise InvalidInputError("iterations must be at least 1")
    dataset, queries = config.dataset, config.queries
    t, k = config.truth_depth, config.k
    if t > dataset.n:
        raise InvalidInputError(f"truth depth {t} exceeds n={dataset.n}")

    counts = config.item_counts
    if counts is None:
        counts = tuple(c for c in DEFAULT_ITEM_COUNTS if t <= c <= dataset.n)
    if counts:
        counts = _checked_counts(counts, t, dataset.n)

    truth = exact_topk(dataset, queries, t)
    rng = np.random.default_rng(seed)
    recalls, precisions, f1s, times = [], [], [], []
    curves = []
    for it in range(iterations):
        sample = rng.integers(0, dataset.n, size=dataset.n)
        boot = Dataset(dataset.items[sample])
        train_seed = int(rng.integers(0, 2**63 - 1))

        start = time.perf_counter()
        trained = train_index(
            boot,
            config.mode,
            config.m,
            config.m_prime,
            config.k_star,
            replace(config.params, seed=train_seed),
            measure=config.measure,
        )
        index = reencode(trained, dataset)
        rows = _query_metrics(index, truth, queries, k)
        r, p, f = rows.mean(axis=0) if rows.size else (0.0, 0.0, 0.0)
        times.append(time.perf_counter() - start)
        recalls.append(r)
        precisions.append(p)
        f1s.append(f)
        if counts:
            curves.append(recall_item_curve(index, dataset, queries, counts, t))

    curve = tuple(
        (counts[i], float(np.mean([c[i][1] for c in curves])))
        for i in range(len(counts))
    ) if curves else ()
    return EvalReport(
        method=config.method_label or config.mode,
        dataset_label=config.dataset_label,
        items=dataset.n,
        iterations=iterations,
        recall_mean=float(np.mean(recalls)),
        precision_mean=float(np.mean(precisions)),
        f1_mean=float(np.mean(f1s)),
        recall_std=float(np.std(recalls)),
        precision_std=float(np.std(precisions)),
        f1_std=float(np.std(f1s)),
        running_time_seconds=tuple(times),
        recalls=tuple(recalls),
        precisions=tuple(precisions),
        f1s=tuple(f1s),
        curve=curve,
    )


def write_metrics_csv(path, reports) -> None:
    """One row per report: method,dataset,items,recall,precision,f1,time_s,std."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for rep in reports:
            writer.writerow(
                [
                    rep.method,
                    rep.dataset_label,
                    rep.items,
                    f"{rep.recall_mean:.6f}",
                    f"{rep.precision_mean:.6f}",
                    f"{rep.f1_mean:.6f}",
                    f"{rep.time_mean:.6f}",
                    f"{rep.recall_std:.6f}",
                ]
            )


def write_curve_csv(path, curve) -> None:
    """Curve rows: items,recall."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_HEADER)
        for count, value in curve:
            writer.writerow([int(count), f"{value:.6f}"])
