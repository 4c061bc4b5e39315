"""Independent reference implementations used as test oracles.

Everything here recomputes expected values through a different code
path than the library: explicit loops, direct formulas, or full sorts.
"""

from __future__ import annotations

import numpy as np

from fneq.aggregation import FuzzyMeasure, SugenoInputs, cluster_weights, sugeno_integral
from fneq.clustering import FuzzyClusterResult, KMeansResult, kmeans_plusplus, squared_distances
from fneq.core import Codebook


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


def _assign(points: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    d2 = squared_distances(points, centroids)
    labels = d2.argmin(axis=1)
    return labels, d2[np.arange(points.shape[0]), labels]


def lloyd_reference(points: np.ndarray, c: int, params) -> KMeansResult:
    """Lloyd k-means as a per-cluster loop: every cell's masked mean and
    a full distance recomputation per iteration, on the points as given
    (strided views included). Shares only the k-means++ seeding."""
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

    return KMeansResult(
        centroids=Codebook(centroids),
        assignments=labels,
        inertia=history[-1],
        n_iter=n_iter,
        converged=converged,
        inertia_history=tuple(history),
    )


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
