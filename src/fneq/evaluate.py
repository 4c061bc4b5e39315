"""Ground-truth oracle, retrieval metrics and the benchmark harness.

The harness mirrors the reported methodology: training items are
resampled with replacement per iteration, the index is retrained, and
recall/precision/F1 of the approximate top-t against the exact top-t
are averaged over queries; means and standard deviations are reported
across iterations together with per-iteration wall-clock times and a
recall-vs-item-count curve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .aggregation import FuzzyMeasure
from .clustering import ClusteringParams, _check_seed
from .core import Dataset, QuerySet, _frozen
from .core import thread_cap  # noqa: F401  (kept here: bench/run.py records it)
from .errors import InvalidInputError
from .neq import IndexArtifact, reencode, scan_scores, select_top_k, train_index
from .persist import _write_csv

#: Item counts used for recall curves when the dataset is large enough.
DEFAULT_ITEM_COUNTS = (2048, 4096, 8192, 16384, 32768)

METRICS_HEADER = ("method", "dataset", "items", "recall", "precision", "f1", "time_s", "std")
CURVE_HEADER = ("items", "recall")


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
    rows = _prefix_truths(dataset, queries, [dataset.n], t)[0]
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
    truths = _prefix_truths(dataset, queries, counts, t)
    values = [[] for _ in counts]
    for i, q in enumerate(queries.queries):
        _add_prefix_recalls(values, scan_scores(q, index, limit=counts[-1]), truths, counts, i, t)
    return [(count, float(np.mean(vals)) if vals else 0.0) for count, vals in zip(counts, values)]


def _prefix_truths(dataset: Dataset, queries: QuerySet, counts: list[int], t: int) -> list:
    """Per count, each query's exact top-t of that item prefix."""
    qs = queries.queries
    return [[select_top_k(s, t) for s in qs @ dataset.items[:count].T] for count in counts]


def _add_prefix_recalls(values: list, scores, truths: list, counts: list[int], i: int, t: int):
    """Append query ``i``'s recall on each count's prefix of ``scores``."""
    for vals, truth, count in zip(values, truths, counts):
        vals.append(recall(select_top_k(scores[:count], t), truth[i]))


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


def bootstrap_eval(config: EvalConfig, iterations: int = 10, seed: int = 0) -> EvalReport:
    """Per iteration: resample the training items with replacement, fit
    the codebooks on the resample, then encode and evaluate the original
    corpus against its exact ground truth. Means and stds are reported
    across iterations.

    Each query is scanned once per iteration, over all items; the curve
    reads prefixes of those scores, which equal scans of the prefixes
    because the scan is elementwise. Per-iteration wall time covers
    codebook training, corpus encoding, the query scans and the top-k
    metrics; the curve's prefix selections are timed per query and
    subtracted. Fixing ``seed`` fixes the resamples and the training
    seeds, so the report is reproducible.
    """
    if iterations < 1:
        raise InvalidInputError("iterations must be at least 1")
    _check_seed(seed)
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
    truths = _prefix_truths(dataset, queries, counts, t)
    rng = np.random.default_rng(seed)
    metrics, times, curves = [], [], []
    for it in range(iterations):
        sample = rng.integers(0, dataset.n, size=dataset.n)
        boot = Dataset(dataset.items[sample])
        train_seed = int(rng.integers(0, 2**63 - 1))

        start = time.perf_counter()
        params = replace(config.params, seed=train_seed)
        trained = train_index(boot, config.mode, config.m, config.m_prime, config.k_star, params,
                              measure=config.measure)
        index = reencode(trained, dataset)
        rows = np.empty((queries.count, 3))
        values = [[] for _ in counts]
        excluded = 0.0
        for i, q in enumerate(queries.queries):
            scores = scan_scores(q, index)
            approx = select_top_k(scores, k)
            r, p = recall(approx, truth.ids[i]), precision(approx, truth.ids[i])
            rows[i] = r, p, f1(p, r)
            mark = time.perf_counter()
            _add_prefix_recalls(values, scores, truths, counts, i, t)
            excluded += time.perf_counter() - mark
        metrics.append(rows.mean(axis=0) if rows.size else (0.0, 0.0, 0.0))
        times.append(time.perf_counter() - start - excluded)
        curves.append([float(np.mean(vals)) if vals else 0.0 for vals in values])

    recalls, precisions, f1s = (tuple(m) for m in zip(*metrics))
    curve = tuple((count, float(np.mean(col))) for count, col in zip(counts, zip(*curves)))
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
        recalls=recalls,
        precisions=precisions,
        f1s=f1s,
        curve=curve,
    )


def write_metrics_csv(path, reports) -> None:
    """One row per report: method,dataset,items,recall,precision,f1,time_s,std."""

    def row(rep) -> list:
        stats = (rep.recall_mean, rep.precision_mean, rep.f1_mean, rep.time_mean, rep.recall_std)
        return [rep.method, rep.dataset_label, rep.items, *(f"{v:.6f}" for v in stats)]

    _write_csv(path, METRICS_HEADER, map(row, reports))


def write_curve_csv(path, curve) -> None:
    """Curve rows: items,recall."""
    _write_csv(path, CURVE_HEADER, ([int(count), f"{value:.6f}"] for count, value in curve))
