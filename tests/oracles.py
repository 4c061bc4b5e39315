"""Independent reference implementations used as test oracles.

Everything here recomputes expected values through a different code
path than the library: explicit loops, direct formulas, or full sorts.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from fneq.aggregation import (
    FuzzyMeasure,
    SugenoInputs,
    cluster_weights,
    fuse_codebooks,
    sugeno_integral,
)
from fneq.clustering import (
    ClusteringParams,
    FuzzyClusterResult,
    KMeansResult,
    _check_points,
    encode_scalar,
    it2fpcm,
    kmeans,
    kmeans_scalar,
    squared_distances,
)
from fneq.core import (
    Codebook, CodeMatrix, Dataset, NormCodebook, QuerySet, SubVectorLayout, row_norms,
)
from fneq.errors import CorruptionError, InvalidInputError
from fneq.evaluate import (
    DEFAULT_ITEM_COUNTS,
    EvalConfig,
    EvalReport,
    GroundTruth,
    _checked_counts,
    _prefix_truths,
    exact_topk,
    f1,
    precision,
    recall,
)
from fneq.neq import (
    IndexArtifact, IndexMetadata, reencode, scan_scores, select_top_k, train_index,
)
from fneq.quantizers import (
    ADCTable,
    PQIndex,
    RQIndex,
    TRAINING_TOL,
    _subseeds,
    decode,
    encode_batch,
)
from fneq.tuner import _repaired


def brute_force_nearest(vectors: np.ndarray, codewords: np.ndarray) -> np.ndarray:
    """Nearest codeword per row by direct squared-distance loops."""
    out = np.empty(vectors.shape[0], dtype=np.int64)
    for i, v in enumerate(vectors):
        dists = [float(np.sum((v - c) ** 2)) for c in codewords]
        best = 0
        for j in range(1, len(dists)):
            if dists[j] < dists[best]:
                best = j
        out[i] = best
    return out


def nearest_codes_reference(vectors: np.ndarray, codebook: Codebook) -> np.ndarray:
    """The first minimum of each row of ``cdist``'s squared distances."""
    return squared_distances(vectors, codebook.codewords).argmin(axis=1)


def full_sort_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-k ids by sorting every (score, id) pair."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return np.asarray(order[:k], dtype=np.int64)


def sugeno_by_level_sets(combined: np.ndarray, prefix_measure) -> float:
    """Sugeno integral via its level-set definition:
    ``max over alpha of min(alpha, g({i: combined_i >= alpha}))``.

    ``prefix_measure(subset_indices)`` must return g of that subset.
    """
    best = 0.0
    for alpha in combined:
        level = np.flatnonzero(combined >= alpha)
        best = max(best, min(float(alpha), prefix_measure(level)))
    return best


def uniform_bin_mse(values: np.ndarray, k: int) -> float:
    """Quantization MSE of k equal-width bins with midpoint codewords."""
    lo, hi = values.min(), values.max()
    edges = np.linspace(lo, hi, k + 1)
    mids = (edges[:-1] + edges[1:]) / 2.0
    idx = np.clip(np.digitize(values, edges[1:-1]), 0, k - 1)
    return float(np.mean((values - mids[idx]) ** 2))


# Frozen copies of the library's k-means++ seeding, interval partition
# and weighted centroids as they were before the seeding and partition
# changed orientation: an (n, 1) distance column per seed, and each
# exponent's partition built from its own (n, c) distance matrix. Every
# seeding oracle below uses them, so the bit-for-bit tests compare the
# library with code it does not share.


def kmeans_plusplus(points: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding; falls back to uniform picks once every
    remaining point coincides with a chosen centroid."""
    n = points.shape[0]
    centroids = np.empty((c, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    if c == 1:
        return centroids
    closest = squared_distances(points, centroids[:1]).ravel()
    for i in range(1, c):
        total = closest.sum()
        if total > 0:
            pick = rng.choice(n, p=closest / total)
        else:
            pick = rng.integers(n)
        centroids[i] = points[pick]
        closest = np.minimum(closest, squared_distances(points, centroids[i : i + 1]).ravel())
    return centroids


def _partition_matrix(d2: np.ndarray, exponent: float) -> np.ndarray:
    """Row-stochastic memberships ``d2^(-1/(u-1))`` normalized over
    clusters. A point at distance zero from one or more centroids gets
    its mass split evenly among them (the limit of the update rule)."""
    p = 1.0 / (exponent - 1.0)
    zero = d2 == 0.0
    singular = zero.any(axis=1)
    # Normalizing by the row minimum keeps the powers in (0, 1].
    safe = np.where(zero, 1.0, d2)
    floor = safe.min(axis=1, keepdims=True)
    w = np.power(safe / floor, -p)
    w[singular] = zero[singular].astype(np.float64)
    return w / w.sum(axis=1, keepdims=True)


def _interval_partition(
    d2: np.ndarray, lower_exp: float, upper_exp: float
) -> tuple[np.ndarray, np.ndarray]:
    a = _partition_matrix(d2, lower_exp)
    if upper_exp == lower_exp:
        return a, a.copy()
    b = _partition_matrix(d2, upper_exp)
    return np.minimum(a, b), np.maximum(a, b)


def _weighted_centroids(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return (weights.T @ points) / weights.sum(axis=0)[:, None]


def fpcm_reference(
    points: np.ndarray,
    c: int,
    xi: float,
    eta: float,
    epsilon: float = 1e-5,
    max_iters: int = 100,
    seed: int = 0,
):
    """Direct type-1 fuzzy possibilistic c-means.

    Single-exponent analogue of the library's interval trainer, written
    with the textbook per-pair formula instead of vectorized
    normalization. Shares only the k-means++ seeding so both start from
    the same centroids.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    v = kmeans_plusplus(points, c, rng)

    def memberships(d2, exponent):
        mat = np.zeros((n, c))
        p = 1.0 / (exponent - 1.0)
        for k_i in range(n):
            zeros = np.flatnonzero(d2[k_i] == 0.0)
            if zeros.size:
                mat[k_i, zeros] = 1.0 / zeros.size
                continue
            for i in range(c):
                mat[k_i, i] = 1.0 / np.sum((d2[k_i, i] / d2[k_i]) ** p)
        return mat

    objective = np.inf
    for _ in range(max_iters):
        d2 = ((points[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
        mu = memberships(d2, xi)
        tau = memberships(d2, eta)
        w = (mu + tau) ** xi
        v = (w.T @ points) / w.sum(axis=0)[:, None]
        d2_new = ((points[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
        new_objective = float((w * d2_new).sum() / w.sum())
        if abs(objective - new_objective) < epsilon:
            objective = new_objective
            break
        objective = new_objective
    return v, mu, tau


def it2fpcm_reference(points: np.ndarray, params: ClusteringParams) -> FuzzyClusterResult:
    """The library's interval type-2 fuzzy possibilistic c-means before
    it reused the memberships as possibilities at equal exponents; it
    computes the possibility partition on every iteration.

    Returns interval memberships, possibilities and per-bound centroids.
    If the objective has not improved by less than ``epsilon`` within
    ``max_iters`` iterations, the best-so-far state is returned with
    ``converged=False``.
    """
    c = params.c
    points = _check_points(points, c)
    rng = np.random.default_rng(params.seed)
    v_lo = kmeans_plusplus(points, c, rng)
    v_up = v_lo.copy()

    objective = np.inf
    improvement = np.inf
    converged = False
    n_iter = 0
    best = None
    for n_iter in range(1, params.max_iters + 1):
        d2 = squared_distances(points, (v_lo + v_up) / 2.0)
        mu_lo, mu_up = _interval_partition(d2, params.xi_lower, params.xi_upper)
        tau_lo, tau_up = _interval_partition(d2, params.eta_lower, params.eta_upper)

        w_lo = np.power(mu_lo + tau_lo, params.xi_lower)
        w_up = np.power(mu_up + tau_up, params.xi_lower)
        v_lo = _weighted_centroids(points, w_lo)
        v_up = _weighted_centroids(points, w_up)

        # Weighted mean distortion over both bounds. Normalizing by the
        # weight mass keeps the epsilon test meaningful at high
        # fuzziness exponents, where raw weights are vanishingly small.
        num = (w_lo * squared_distances(points, v_lo)).sum()
        num += (w_up * squared_distances(points, v_up)).sum()
        new_objective = float(num / (w_lo.sum() + w_up.sum()))
        improvement = abs(objective - new_objective)
        objective = new_objective
        if best is None or objective < best[0]:
            best = (objective, v_lo, v_up, mu_lo, mu_up, tau_lo, tau_up)
        if improvement < params.epsilon:
            converged = True
            break

    if not converged:
        # Iteration budget exhausted: hand back the best state seen.
        objective, v_lo, v_up, mu_lo, mu_up, tau_lo, tau_up = best

    return FuzzyClusterResult(
        centroids_lower=v_lo,
        centroids_upper=v_up,
        membership_lower=mu_lo.T,
        membership_upper=mu_up.T,
        possibility_lower=tau_lo.T,
        possibility_upper=tau_up.T,
        objective=objective,
        final_improvement=float(improvement),
        n_iter=n_iter,
        converged=converged,
    )


def _assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d2 = squared_distances(points, centroids)
    labels = d2.argmin(axis=1)
    return labels, d2[np.arange(points.shape[0]), labels]


def lloyd_reference(points: np.ndarray, c: int, params, tol: float = 0.0) -> KMeansResult:
    """Lloyd k-means as a per-cluster loop: every cell's masked mean and
    a full distance recomputation per iteration, on the points as given
    (strided views included). Shares only the k-means++ seeding. Stops
    when the labels repeat or, for ``tol > 0``, when the inertia falls
    by at most ``tol`` times its new value, keeping the new labels."""
    points = np.asarray(points, dtype=np.float64)
    rng = np.random.default_rng(params.seed)
    centroids = kmeans_plusplus(points, c, rng)

    labels, closest = _assign(points, centroids)
    history = [float(closest.sum())]
    converged = False
    n_iter = 0
    for n_iter in range(1, params.max_iters + 1):
        for j in range(c):
            member = labels == j
            if member.any():
                centroids[j] = points[member].mean(axis=0)
            else:
                far = int(np.argmax(closest))
                if closest[far] > 0:
                    centroids[j] = points[far]
                    closest[far] = 0.0
        new_labels, closest = _assign(points, centroids)
        history.append(float(closest.sum()))
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
        if tol > 0 and history[-2] - history[-1] <= tol * history[-1]:
            converged = True
            break

    return KMeansResult(
        centroids=Codebook(centroids),
        assignments=labels,
        inertia=history[-1],
        n_iter=n_iter,
        converged=converged,
        inertia_history=tuple(history),
    )


def cell_sums_reference(points: np.ndarray, labels: np.ndarray, c: int) -> np.ndarray:
    """Per cell, the sum of its points: one weighted ``bincount`` per
    coordinate, which adds a cell's members in ascending order from +0.0
    (Lloyd's cell sums before they became one sparse one-hot product)."""
    return np.stack([np.bincount(labels, weights=col, minlength=c) for col in points.T], 1)


def fuse_reference(result: FuzzyClusterResult, measure: FuzzyMeasure | None = None) -> Codebook:
    """Interval codebook fusion as a per-cluster, per-coordinate loop: a
    validated two-source ``sugeno_integral`` for every coordinate where
    the bounds differ."""
    if measure is None:
        measure = FuzzyMeasure()
    w_lo, w_up = cluster_weights(result)
    v_lo = result.centroids_lower
    v_up = result.centroids_upper
    fused = v_lo.copy()
    for i in range(v_lo.shape[0]):
        mem = np.clip([w_lo[i], w_up[i]], 0.0, 1.0)
        for d in range(v_lo.shape[1]):
            a, b = v_lo[i, d], v_up[i, d]
            if a == b:
                continue
            lo, hi = (a, b) if a < b else (b, a)
            h = np.array([(a - lo), (b - lo)]) / (hi - lo)
            s = sugeno_integral(SugenoInputs(h_values=h, memberships=mem), measure)
            fused[i, d] = lo + s * (hi - lo)
    return Codebook(fused)


def curve_reference(index, dataset, queries, item_counts, t: int) -> list[tuple[int, float]]:
    """Recall-vs-item-count curve count by count: for every count, one
    exact product of its prefix and one scan per query limited to it."""
    curve = []
    for count in [int(nc) for nc in item_counts]:
        pool = dataset.items[:count]
        exact = queries.queries @ pool.T
        values = []
        for i in range(queries.count):
            truth = select_top_k(exact[i], t)
            approx = select_top_k(scan_scores(queries.queries[i], index, limit=count), t)
            values.append(recall(approx, truth))
        curve.append((count, float(np.mean(values)) if values else 0.0))
    return curve


def recall_cost_reference(index, truth_ids: np.ndarray, queries, k: int) -> float:
    """Negated mean recall@k over queries, one full scan per query."""
    values = [
        recall(select_top_k(scan_scores(queries.queries[i], index), k), truth_ids[i])
        for i in range(queries.count)
    ]
    return -float(np.mean(values))


# Frozen copy of ``bootstrap_eval`` with its two scans per query and
# iteration, and the two helpers it scanned through.


def _curve(index, queries: QuerySet, counts: list[int], truths: list, t: int) -> list:
    """``recall_item_curve`` against precomputed ``_prefix_truths``."""
    values = [[] for _ in counts]
    for i, q in enumerate(queries.queries):
        scores = scan_scores(q, index, limit=counts[-1])
        for truth, count, vals in zip(truths, counts, values):
            vals.append(recall(select_top_k(scores[:count], t), truth[i]))
    return [(count, float(np.mean(vals)) if vals else 0.0) for count, vals in zip(counts, values)]


def _query_metrics(index, truth: GroundTruth, queries: QuerySet, k: int) -> np.ndarray:
    """One (recall, precision, F1) row per query for the index's top-k."""
    rows = np.empty((queries.count, 3))
    for i, q in enumerate(queries.queries):
        approx = select_top_k(scan_scores(q, index), k)
        r = recall(approx, truth.ids[i])
        p = precision(approx, truth.ids[i])
        rows[i] = r, p, f1(p, r)
    return rows


def bootstrap_eval_reference(config: EvalConfig, iterations: int = 10, seed: int = 0) -> EvalReport:
    """``bootstrap_eval`` as it was with two scans per query and
    iteration: all items for the top-k metrics, then the largest curve
    count for the curve, outside the timed region."""
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
    truths = _prefix_truths(dataset, queries, counts, t)
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
            curves.append(_curve(index, queries, counts, truths, t))

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


def rq_encode(items: np.ndarray, codebooks: tuple[Codebook, ...]) -> np.ndarray:
    """Residual stages one after another on the full-dimension items."""
    residual = items.copy()
    codes = np.empty((items.shape[0], len(codebooks)), dtype=np.int64)
    for s, cb in enumerate(codebooks):
        idx = nearest_codes_reference(residual, cb)
        residual -= cb.codewords[idx]
        codes[:, s] = idx
    return codes


def rq_decode(codes: np.ndarray, codebooks: tuple[Codebook, ...]) -> np.ndarray:
    """Sum the selected codeword of every stage."""
    codes = np.asarray(codes)
    single = codes.ndim == 1
    if single:
        codes = codes[None, :]
    out = np.zeros((codes.shape[0], codebooks[0].dim))
    for s, cb in enumerate(codebooks):
        col = codes[:, s]
        if col.size and (col.min() < 0 or col.max() >= cb.k_star):
            raise CorruptionError(f"code out of range for stage {s}")
        out += cb.codewords[col]
    return out[0] if single else out


def item_sq_norms_reference(index: IndexArtifact) -> np.ndarray:
    """Squared norms of the reconstructions as the library computed them
    before the sub-space rule: rq decodes every item."""
    codes = index.codes.codes
    if index.mode == "rq":
        # Stages overlap, so their cross terms do not vanish.
        recon = decode(codes, index.dir_codebooks, index.layout)
        return np.einsum("ij,ij->i", recon, recon)
    dir_sq = np.zeros(codes.shape[0])
    for j, cb in enumerate(index.dir_codebooks):
        sq = np.einsum("ij,ij->i", cb.codewords, cb.codewords)
        dir_sq += sq.take(codes[:, index.m_prime + j])
    if index.m_prime == 0:
        return dir_sq
    l_total = np.zeros(codes.shape[0])
    for s, cb in enumerate(index.norm_codebooks):
        l_total += cb.values.take(codes[:, s])
    return l_total * l_total * dir_sq


def gather_sum_reference(tables, codes: np.ndarray) -> np.ndarray:
    """Per item, the sum of ``tables[j][codes[:, j]]`` over the tables, in
    order, from a zeroed accumulator (the scan's sum before it was seeded
    with the first table's entries)."""
    total = np.zeros(codes.shape[0])
    for j, table in enumerate(tables):
        total += table.take(codes[:, j])
    return total


def build_stage_table(q: np.ndarray, codebooks: tuple[Codebook, ...]) -> ADCTable:
    """Residual-quantizer variant: ``tables[s][i] = <q, c_{s,i}>`` with the
    full-dimension query."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (codebooks[0].dim,):
        raise InvalidInputError(f"expected a query of length {codebooks[0].dim}")
    k_star = max(cb.k_star for cb in codebooks)
    tables = np.zeros((len(codebooks), k_star))
    for s, cb in enumerate(codebooks):
        tables[s, : cb.k_star] = cb.codewords @ q
    return ADCTable(tables)


def train_pq_reference(dataset: Dataset, m_dir: int, k_star: int, params) -> PQIndex:
    """Product quantization as one k-means per sub-space at the training
    tolerance, one after another; the codes are the final k-means
    assignments."""
    layout = SubVectorLayout(D=dataset.dim, m_dir=m_dir)
    results = [
        kmeans(dataset.items[:, sl], k_star, replace(params, seed=seed), tol=TRAINING_TOL)
        for seed, sl in zip(_subseeds(params.seed, m_dir), layout.slices())
    ]
    return PQIndex(
        layout=layout,
        codebooks=tuple(r.centroids for r in results),
        codes=CodeMatrix(
            np.column_stack([r.assignments for r in results]), k_stars=(k_star,) * m_dir
        ),
    )


def train_rq_reference(dataset: Dataset, stages: int, k_star: int, params) -> RQIndex:
    """Residual quantization as a stage loop: each stage clusters the
    residual of the last at the training tolerance, and the codes are the
    final k-means assignments."""
    seeds = _subseeds(params.seed, stages)
    residual = dataset.items
    codebooks = []
    codes = np.empty((dataset.n, stages), dtype=np.int64)
    for s in range(stages):
        result = kmeans(residual, k_star, replace(params, seed=seeds[s]), tol=TRAINING_TOL)
        residual = residual - result.centroids.codewords[result.assignments]
        codebooks.append(result.centroids)
        codes[:, s] = result.assignments
    return RQIndex(codebooks=tuple(codebooks), codes=CodeMatrix(codes, k_stars=(k_star,) * stages))


def _f32(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def train_index_reference(
    dataset: Dataset, mode: str, m: int, m_prime: int, k_star: int, params,
    measure: FuzzyMeasure | None = None,
) -> IndexArtifact:
    """``train_index`` mode by mode. pq and rq: the reference trainers,
    then the items coded with the float32-rounded codebooks. NEQ modes:
    direction codebooks fitted sub-space by sub-space on the unit
    directions, rounded, then direction codes, relative norms and norm
    stages fitted and coded one after another."""
    if mode in ("pq", "rq"):
        trainer = train_pq_reference if mode == "pq" else train_rq_reference
        base = trainer(dataset, m, k_star, params)
        layout = SubVectorLayout(D=dataset.dim, m_dir=m if mode == "pq" else 1)
        norm_cbs, dir_cbs = (), tuple(Codebook(_f32(cb.codewords)) for cb in base.codebooks)
        codes = encode_batch(dataset.items, dir_cbs, layout)
        m_prime = 0
    else:
        layout = SubVectorLayout(D=dataset.dim, m_dir=m - m_prime)
        norms = row_norms(dataset.items)
        nonzero = norms > 0
        directions = dataset.items[nonzero] / norms[nonzero, None]
        dir_cbs = []
        for seed, sl in zip(_subseeds(params.seed, layout.m_dir), layout.slices()):
            sub_params = replace(params, seed=seed, c=k_star)
            if mode == "neq_kmeans":
                cb = kmeans(directions[:, sl], k_star, sub_params, tol=TRAINING_TOL).centroids
            else:
                cb = fuse_codebooks(it2fpcm(directions[:, sl], sub_params), measure)
            dir_cbs.append(Codebook(_f32(cb.codewords)))
        dir_cbs = tuple(dir_cbs)
        dir_codes = np.zeros((dataset.n, layout.m_dir), dtype=np.int64)
        dir_codes[nonzero] = encode_batch(directions, dir_cbs, layout)
        recon_norms = row_norms(decode(dir_codes[nonzero], dir_cbs, layout))
        residual = np.zeros(dataset.n)
        residual[nonzero] = norms[nonzero] / np.maximum(recon_norms, 1e-30)
        norm_cbs, norm_codes = [], np.zeros((dataset.n, m_prime), dtype=np.int64)
        for s in range(m_prime):
            if s == 0 and not nonzero.all():
                tail = kmeans_scalar(residual[nonzero], k_star - 1).values
                values = np.sort(np.concatenate([[0.0], tail]))
            else:
                values = kmeans_scalar(residual, k_star, signed=s > 0).values
            cb = NormCodebook(_f32(values), signed=s > 0)
            norm_codes[:, s] = encode_scalar(residual, cb)
            residual = residual - cb.values[norm_codes[:, s]]
            norm_cbs.append(cb)
        codes = np.hstack([norm_codes, dir_codes])
    return IndexArtifact(
        mode=mode,
        layout=layout,
        norm_codebooks=tuple(norm_cbs),
        dir_codebooks=dir_cbs,
        codes=CodeMatrix(codes, k_stars=(k_star,) * m),
        metadata=IndexMetadata(
            D=dataset.dim, n=dataset.n, m=m, m_prime=m_prime, k_star=k_star, seed=params.seed
        ),
    )


def xi_grid_reference(objective, bounds: tuple[float, float], steps: int = 12) -> np.ndarray:
    """``tuner.xi_grid`` as a plain loop: every cell in row-major order,
    one after another, mirrored cells evaluated twice."""
    if steps < 2:
        raise InvalidInputError("steps must be at least 2")
    wrapped = _repaired(objective)
    axis = np.linspace(bounds[0], bounds[1], steps)
    rows = []
    for x1 in axis:
        for x2 in axis:
            rows.append((x1, x2, wrapped((x1, x2))))
    return np.asarray(rows)
