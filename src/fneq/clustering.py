"""Codebook learning.

Two trainers live here: seeded Lloyd k-means (baseline vector codebooks
and scalar norm codebooks) and an interval type-2 fuzzy possibilistic
c-means (IT2FPCM) whose interval output feeds the codebook fusion stage.

IT2FPCM iterates four partition-matrix updates and two centroid updates:

* fuzzy memberships: for exponent ``u``, point ``k`` and cluster ``i``,
  ``f_u(i, k) = (sum_j (d_ik / d_jk)^(2/(u-1)))^-1`` over clusters ``j``;
  the lower bound is the elementwise min over ``u in {xi1, xi2}`` and the
  upper bound the max,
* possibilistic memberships: the same construction with ``eta1, eta2``,
* per-bound centroids: weighted means with weights ``(mu + tau)^xi1``.

Distances are squared Euclidean to the midpoint of the two centroid
bounds, which keeps the interval ordering (lower <= upper) exact. The
loop stops when the objective improves by less than ``epsilon``.

Both trainers skip repeated work without changing a bit of output: an
array changes orientation only where each entry depends on one point and
one centroid alone or the reduction is a min, and every sum keeps its
layout or its order (see ``kmeans``, ``kmeans_plusplus`` and ``it2fpcm``).
Lloyd k-means (``kmeans``) is one loop whose rounds label the points by
exact distances or, for training fits, by the encoder's GEMM kernel. Its
cell sums, a one-hot CSC product, add each cell's members one by one from
+0.0 at every width (``mean`` sums a width-1 cell pairwise instead).
From ``_SPLIT_ROWS`` points, an IT2FPCM fit outside any pool runs each
iteration on two threads with the same output bytes (see ``it2fpcm``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array
from scipy.spatial.distance import cdist

from .core import Codebook, NormCodebook, _freeze_field, _frozen, _paired
from .errors import InvalidInputError

_SPLIT_ROWS = 4096  #: Rows from which ``it2fpcm`` takes two threads; below it the split lost, OpenBLAS unpinned.


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2**64:
        raise InvalidInputError("seed must lie in [0, 2**64)")


@dataclass(frozen=True)
class ClusteringParams:
    """Shared knobs for the clustering trainers.

    The fuzziness interval defaults to [8.5, 9.1]; the possibility
    interval mirrors it unless set explicitly. ``epsilon`` bounds the
    objective improvement at termination and ``seed``, in [0, 2**64),
    fixes the k-means++ initialization.
    """

    c: int = 8
    xi_lower: float = 8.5
    xi_upper: float = 9.1
    eta_lower: float | None = None
    eta_upper: float | None = None
    epsilon: float = 1e-5
    max_iters: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.eta_lower is None:
            object.__setattr__(self, "eta_lower", self.xi_lower)
        if self.eta_upper is None:
            object.__setattr__(self, "eta_upper", self.xi_upper)
        if self.c < 1:
            raise InvalidInputError("c must be at least 1")
        if not (1.0 < self.xi_lower <= self.xi_upper):
            raise InvalidInputError("fuzziness interval must satisfy 1 < xi1 <= xi2")
        if not (1.0 < self.eta_lower <= self.eta_upper):
            raise InvalidInputError("possibility interval must satisfy 1 < eta1 <= eta2")
        if self.epsilon <= 0:
            raise InvalidInputError("epsilon must be positive")
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be at least 1")
        _check_seed(self.seed)


@dataclass(frozen=True)
class KMeansResult:
    """Lloyd output: each label is the nearest of the returned centroids,
    and ``converged`` is True at either stop of ``kmeans``. Each centroid
    is the mean of its cell (up to the empty-cluster repair) only at a
    label-stability stop."""

    centroids: Codebook
    assignments: np.ndarray
    inertia: float
    n_iter: int
    converged: bool
    inertia_history: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "assignments", _frozen(np.asarray(self.assignments, dtype=np.int64))
        )


@dataclass(frozen=True)
class FuzzyClusterResult:
    """Interval centroids plus membership/possibility bounds.

    Matrices are ``(c, n)``, all four of one shape: rows are clusters, columns
    are points. The lower bound never exceeds the upper bound and all entries
    lie in [0, 1]; these facts are checked at construction. The centroid bounds
    are finite ``(c, D)`` matrices of one shape. Possibilities passed as
    the membership arrays themselves (``it2fpcm`` at ``eta = xi``) are
    checked and frozen once, and stay the same arrays.
    """

    centroids_lower: np.ndarray
    centroids_upper: np.ndarray
    membership_lower: np.ndarray
    membership_upper: np.ndarray
    possibility_lower: np.ndarray
    possibility_upper: np.ndarray
    objective: float
    final_improvement: float
    n_iter: int
    converged: bool

    def __post_init__(self):
        shared = self.possibility_lower is self.membership_lower and self.possibility_upper is self.membership_upper
        for name in ("membership",) if shared else ("membership", "possibility"):
            lo = np.asarray(getattr(self, f"{name}_lower"), dtype=np.float64)
            up = np.asarray(getattr(self, f"{name}_upper"), dtype=np.float64)
            if lo.shape != up.shape:
                raise InvalidInputError(f"{name} bounds disagree on shape")
            if not np.all((0 <= lo) & (lo <= up) & (up <= 1)):  # NaN fails too
                raise InvalidInputError(f"{name} bounds must satisfy 0 <= lower <= upper <= 1")
            object.__setattr__(self, f"{name}_lower", _frozen(lo))
            object.__setattr__(self, f"{name}_upper", _frozen(up))
        if shared:
            object.__setattr__(self, "possibility_lower", self.membership_lower)
            object.__setattr__(self, "possibility_upper", self.membership_upper)
        mu, tau = self.membership_lower.shape, self.possibility_lower.shape
        if tau != mu:
            raise InvalidInputError(f"possibility bounds must have the memberships' shape {mu}, got {tau}")
        for name in ("centroids_lower", "centroids_upper"):
            _freeze_field(self, name, ndim=2, nonempty=1)
        lo, up = self.centroids_lower.shape, self.centroids_upper.shape
        if lo != up or lo[0] != self.c:
            raise InvalidInputError(f"centroid bounds must both have {self.c} rows and one shape, got {lo} and {up}")

    @property
    def c(self) -> int:
        return self.membership_lower.shape[0]

    @property
    def n(self) -> int:
        return self.membership_lower.shape[1]


def squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, exact zeros preserved."""
    return cdist(points, centroids, "sqeuclidean")


def _nearest(vectors: np.ndarray, cw: np.ndarray, x_sq=None):
    """The nearest codeword per row (ties pick the lowest index), each row's
    least ``g`` (``best``, below) and its ``bound``. Callers that repeat
    ``vectors`` pass their squared norms as ``x_sq``.

    Each index equals the ``squared_distances`` argmin bit for bit. One GEMM
    gives ``g = ||c||² - 2 c·x`` as ``(k*, n)``; rows where another ``g`` lies
    within ``bound`` of the least (ties, non-finite) are re-checked exactly.
    With ``u = eps/2``, ``D = D*``, ``M = max ||c||`` and ``S = (M + ||x||)²
    <= 2 (M² + ||x||²)``, ``g`` is off by at most ``2Du ||c|| ||x|| + Du ||c||²
    + u |g| <= (D+1) u S``, and a ``cdist`` distance ``d <= S``, a sum of ``D``
    terms ``(a - b)²`` each off by ``3u`` of itself, by ``(D+2) u S`` in any
    order. So two ``g`` more than ``(2D+3) eps S`` apart keep their strict
    order in ``cdist``; ``bound = 4 (D+4) eps (M² + ||x||²)`` covers that and
    the rounding of ``best + bound``, and ``4 (D+4)`` smallest subnormals
    cover underflow. ``best + ||x||²`` estimates the row's least ``cdist``
    distance: it adds ``D u S`` (the computed ``||x||²``) and ``u S`` (the
    add), and ``(3D+4) u S < bound``.
    """
    fp = np.finfo(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # such rows take the exact path
        sq = np.einsum("ij,ij->i", cw, cw)
        g = (-2.0 * cw) @ vectors.T
        g += sq[:, None]
        best = g.min(axis=0)
        x_sq = np.einsum("ij,ij->i", vectors, vectors) if x_sq is None else x_sq
        bound = 4 * (cw.shape[1] + 4) * (fp.eps * (sq.max() + x_sq) + fp.smallest_subnormal)
        near = g <= best + bound
    # Per row, the count and index sum of near codewords, in the narrowest
    # type that holds ``k* - 1``: exact where the count is 1, and any
    # wrap-around falls on rows with several, which are re-checked.
    small = np.min_scalar_type(len(cw) - 1)
    count = near.sum(axis=0, dtype=small)
    codes = (near * np.arange(len(cw), dtype=small)[:, None]).sum(axis=0, dtype=small).astype(np.intp)
    rows = np.flatnonzero((count != 1) | ~np.isfinite(best))
    codes[rows] = squared_distances(vectors[rows], cw).argmin(axis=1)
    return codes, best, bound


def _check_points(points: np.ndarray, c: int) -> np.ndarray:
    """Validated points as a C-contiguous float64 array (a copy when the
    input is a strided view such as a sub-space slice)."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise InvalidInputError("points must be a non-empty 2-D matrix")
    # k-means++ sums n squared distances of at most 4 d max|x|² each; keep that finite.
    limit = np.sqrt(np.finfo(np.float64).max / (4 * max(points.size, 1)))
    if not -limit <= points.min(initial=0.0) <= points.max(initial=0.0) <= limit:
        if not np.all(np.isfinite(points)):
            raise InvalidInputError("points must be finite")
        raise InvalidInputError(f"points must lie within ±{limit:.3g}, or their squared distances overflow")
    if not 1 <= c <= points.shape[0]:
        raise InvalidInputError(f"c={c} must lie in [1, {points.shape[0]}] (the available points)")
    return points


def kmeans_plusplus(points: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding; falls back to uniform picks once every
    remaining point coincides with a chosen centroid.

    Each seed's distances are one 1 x n ``cdist`` row, the fast
    orientation; each entry equals the n x 1 column's, as it depends on
    one point and the seed alone.
    """
    n = points.shape[0]
    centroids = np.empty((c, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest = squared_distances(centroids[:1], points)[0]
    for i in range(1, c):
        total = closest.sum()
        centroids[i] = points[rng.choice(n, p=closest / total) if total > 0 else rng.integers(n)]
        np.minimum(closest, squared_distances(centroids[i : i + 1], points)[0], out=closest)
    return centroids


def _lloyd_update(points, onehot, labels, centroids, closest) -> None:
    """``kmeans``' cell means and empty-cell repair in place; ``closest()`` runs only
    to repair. ``onehot`` is ``(np.ones(n), np.arange(n + 1))``."""
    c = len(centroids)
    counts = np.bincount(labels, minlength=c)
    filled = counts > 0
    sums = csc_array((onehot[0], labels, onehot[1]), shape=(c, len(labels))) @ points
    centroids[filled] = sums[filled] / counts[filled, None]
    if filled.all():
        return
    empty = np.flatnonzero(~filled)
    closest = closest()
    far = np.argsort(-closest, kind="stable")[: len(empty)]  # the farthest first, ties by index
    far = far[closest[far] > 0]
    centroids[empty[: len(far)]] = points[far]


def kmeans(
    points: np.ndarray, c: int, params: ClusteringParams, *, tol: float = 0.0,
    exact_inertia: bool = True,
) -> KMeansResult:
    """Lloyd iterations from a k-means++ start, run until the assignment
    stabilizes (so both optimality conditions hold at termination) or,
    for ``tol > 0``, until an iteration lowers the inertia by at most
    ``tol`` times the new inertia. That test is relative, so it does not
    depend on the data's scale; at such a stop the labels are nearest to
    the returned centroids, the means of the previous labels' cells.

    Empty clusters are re-seeded from the point farthest from its
    current centroid; inertia never increases across iterations.

    Both settings of ``exact_inertia`` run one loop and differ only in its
    labeller: ``False`` (training fits) returns the same centroids,
    assignments, ``n_iter`` and ``converged`` bit for bit, with ``inertia``
    and ``inertia_history`` the encoder's GEMM kernel's estimates.

    Each step is bit-identical to a plain loop that takes every cell's
    members summed in ascending order from +0.0 over their count (``mean``
    for ``d >= 2``) and recomputes all distances:

    * Cell sums are one product of a ``(c, n)`` one-hot CSC matrix and
      ``points``: scipy's kernel walks the points in ascending order and adds
      ``1.0 * x`` (exact) to the point's cell from +0.0.
    * Empty cells are repaired after the means, in ascending order, from
      the previous assignment's distances, which the means never read.

    A round's labeller gives the labels, an inertia ``E`` and a radius ``r``
    about it that holds the exact inertia ``I``: one ``(c, n)`` ``cdist`` with
    ``E = I`` and ``r = 0`` (``exact_inertia``), or ``_nearest``'s GEMM with
    ``E`` the sum of ``best + ||x||²`` and ``r = sum(bound) + 2n eps (sum
    |best + ||x||²| + sum(bound))``, as each row lies within its ``bound`` and
    both ``n``-term sums are off by at most ``(n-1) u`` times their magnitudes'
    sum. So ``I0 - I1 - tol I1`` lies within ``(1 + tol) (r0 + r1)`` of ``gap =
    E0 - E1 - tol E1``, and the roundings of ``gap`` and of the test ``I0 - I1
    <= tol I1`` add ``4u (1 + tol) (|E0| + |E1| + r0 + r1)``. A ``gap`` clear
    of that sum decides the stop by its sign; otherwise exact ``cdist``
    inertias decide. At ``r = 0`` that is the test itself: a float
    difference's sign is exact, and a ``gap`` in the band recomputes the same
    ``I0`` and ``I1``.
    """
    points = _check_points(points, c)
    if not tol >= 0.0:
        raise InvalidInputError("tol must be non-negative")
    eps = np.finfo(np.float64).eps
    centroids = kmeans_plusplus(points, c, np.random.default_rng(params.seed))
    onehot = (np.ones(len(points)), np.arange(len(points) + 1))
    if not exact_inertia:
        x_sq = np.einsum("ij,ij->i", points, points)

    def assign():
        if exact_inertia:
            d2 = squared_distances(centroids, points)
            return d2.argmin(axis=0), float(d2.min(axis=0).sum()), 0.0
        labels, best, bound = _nearest(points, centroids, x_sq)
        best += x_sq
        return labels, float(best.sum()), bound.sum() + 2 * len(best) * eps * (np.abs(best).sum() + bound.sum())

    labels, e0, r0 = assign()
    history = [e0]
    for n_iter in range(1, params.max_iters + 1):
        previous = centroids.copy()
        _lloyd_update(points, onehot, labels, centroids,
                      lambda: squared_distances(points, previous).min(axis=1))
        new_labels, e1, r1 = assign()
        history.append(e1)
        stop = np.array_equal(new_labels, labels)
        labels = new_labels
        if not stop and tol > 0.0:
            gap = e0 - e1 - tol * e1
            if abs(gap) > (1 + tol) * (r0 + r1 + 2 * eps * (abs(e0) + abs(e1) + r0 + r1)):
                stop = gap < 0
            else:
                i0 = float(squared_distances(points, previous).min(axis=1).sum())
                i1 = float(squared_distances(points, centroids).min(axis=1).sum())
                stop = i0 - i1 <= tol * i1
        if stop:
            break
        e0, r0 = e1, r1
    return KMeansResult(Codebook(centroids), labels, e1, n_iter, stop, tuple(history))


def _shared_ratios(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What every partition of the ``(c, n)`` distances ``d2`` shares:
    the C-ordered ``(n, c)`` ratios to each point's smallest non-zero
    distance (in (0, 1] once powered), the points at distance zero from
    some centroid, and their rows of the zero mask. Overwrites ``d2``."""
    zero = d2 == 0.0
    singular = zero.any(axis=0)
    d2[zero] = 1.0
    ratios = np.divide(d2.T, d2.min(axis=0)[:, None], order="C")
    return ratios, singular, zero[:, singular].T.astype(np.float64)


def _partition_matrix(shared: tuple, exponent: float) -> np.ndarray:
    """Row-stochastic memberships ``d2^(-1/(u-1))`` normalized over
    clusters. A point at distance zero from one or more centroids gets
    its mass split evenly among them (the limit of the update rule)."""
    ratios, singular, crisp = shared
    w = np.power(ratios, -(1.0 / (exponent - 1.0)))
    w[singular] = crisp
    w /= w.sum(axis=1, keepdims=True)
    return w


def _interval_partition(shared: tuple, lower: float, upper: float) -> tuple[np.ndarray, np.ndarray]:
    a = _partition_matrix(shared, lower)
    if upper == lower:
        return a, a.copy()
    b = _partition_matrix(shared, upper)
    return np.minimum(a, b), np.maximum(a, b, out=b)


def it2fpcm(points: np.ndarray, params: ClusteringParams, *, init: np.ndarray | None = None) -> FuzzyClusterResult:
    """Interval type-2 fuzzy possibilistic c-means.

    Returns interval memberships, possibilities and per-bound centroids.
    If the objective has not improved by less than ``epsilon`` within
    ``max_iters`` iterations, the best-so-far state is returned with
    ``converged=False``. Both bounds start from ``init``, a finite
    ``(c, D)`` matrix (copied), or by default from ``kmeans_plusplus`` at
    ``params.seed``; passing that start gives the same output.

    Per iteration the midpoint distances are one ``(c, n)`` ``cdist``,
    whose zero mask, singular points and per-point minima are read along
    axis 0. Every partition shares one C-ordered ``(n, c)`` ratio matrix,
    so ``np.power``, the row sums and the normalization see the layout
    they had when each partition built its own ``(n, c)`` distances: the
    output is bit-identical. The weighted-centroid product and column
    sums and the objective's weighted sums (multiplied in place) keep
    their layouts. From ``_SPLIT_ROWS`` points at ``thread_cap() > 1`` an
    iteration runs on two threads: each half of the rows' partitions (an
    entry depends on one point), then each bound on all the points, added
    lower then upper, so the bytes are those of one thread. When both
    intervals are degenerate (``xi1 = xi2``, ``eta1 = eta2``) the two
    bounds' partitions are equal, so one bound pass serves both.
    """
    c = params.c
    points = _check_points(points, c)
    if init is None:
        v_lo = kmeans_plusplus(points, c, np.random.default_rng(params.seed))
    else:
        v_lo = np.array(init, dtype=np.float64)
        if v_lo.shape != (c, points.shape[1]) or not np.all(np.isfinite(v_lo)):
            raise InvalidInputError(f"init must be a finite {(c, points.shape[1])} matrix, got shape {v_lo.shape}")
    v_up = v_lo.copy()

    eta = (params.eta_lower, params.eta_upper)
    same_exponents = eta == (params.xi_lower, params.xi_upper)
    degenerate = params.xi_lower == params.xi_upper and eta[0] == eta[1]
    objective = np.inf
    improvement = np.inf
    converged = False
    n_iter = 0
    best = None

    def partitions(mid, rows):
        shared = _shared_ratios(squared_distances(mid, rows))
        mu = _interval_partition(shared, params.xi_lower, params.xi_upper)
        # At equal exponents the possibilities are the memberships, bit for bit.
        return mu if same_exponents else mu + _interval_partition(shared, *eta)

    def bound(m, t):
        # Weights (mu + tau)^xi1, centroids and the weighted distortion; the
        # objective divides it by the weight mass so the epsilon test stays
        # meaningful at high fuzziness, where raw weights are tiny.
        w = np.power(m + t, params.xi_lower)
        v = (w.T @ points) / w.sum(axis=0)[:, None]
        d2 = squared_distances(points, v)
        d2 *= w
        return v, d2.sum(), w.sum()

    half = len(points) // 2
    with _paired(len(points) >= _SPLIT_ROWS) as pair:
        run = pair or (lambda f, g: (f(), g()))
        for n_iter in range(1, params.max_iters + 1):
            mid = (v_lo + v_up) / 2.0
            if pair:
                halves = pair(lambda: partitions(mid, points[:half]), lambda: partitions(mid, points[half:]))
                parts = [np.concatenate(p) for p in zip(*halves)]
            else:
                parts = partitions(mid, points)
            mu, tau = parts[:2], parts[-2:]  # one pair twice where tau is mu
            lower, upper = (lambda: bound(mu[0], tau[0])), (lambda: bound(mu[1], tau[1]))
            (v_lo, num, mass), (v_up, n_up, m_up) = [lower()] * 2 if degenerate else run(lower, upper)
            new_objective = float((num + n_up) / (mass + m_up))
            improvement = abs(objective - new_objective)
            objective = new_objective
            if best is None or objective < best[0]:
                best = (objective, v_lo, v_up, mu, tau)
            if improvement < params.epsilon:
                converged = True
                break

    if not converged:
        # Iteration budget exhausted: hand back the best state seen.
        objective, v_lo, v_up, mu, tau = best

    mu = (mu[0].T, mu[1].T)
    tau = mu if same_exponents else (tau[0].T, tau[1].T)
    return FuzzyClusterResult(
        centroids_lower=v_lo,
        centroids_upper=v_up,
        membership_lower=mu[0],
        membership_upper=mu[1],
        possibility_lower=tau[0],
        possibility_upper=tau[1],
        objective=objective,
        final_improvement=float(improvement),
        n_iter=n_iter,
        converged=converged,
    )


def type_reduce(result: FuzzyClusterResult) -> tuple[Codebook, np.ndarray]:
    """Collapse the interval output to crisp midpoints."""
    centroids = (result.centroids_lower + result.centroids_upper) / 2.0
    membership = (result.membership_lower + result.membership_upper) / 2.0
    return Codebook(centroids), membership


def _scalar_lloyd(values: np.ndarray, k: int, max_iters: int) -> np.ndarray:
    """1-D Lloyd from quantile seeds; cell boundaries are codeword
    midpoints and boundary ties go to the lower cell.

    With k at or above the number of distinct values the quantizer is
    exact: every distinct value becomes its own codeword.
    """
    ordered = np.sort(values)
    distinct = np.unique(ordered)
    if distinct.size <= k:
        return np.sort(np.concatenate([distinct, np.full(k - distinct.size, distinct[-1])]))
    codewords = np.quantile(ordered, (np.arange(k) + 0.5) / k)
    for _ in range(max_iters):
        bounds = (codewords[:-1] + codewords[1:]) / 2.0
        cells = np.searchsorted(bounds, ordered, side="left")
        sums = np.bincount(cells, weights=ordered, minlength=k)
        counts = np.bincount(cells, minlength=k)
        filled = counts > 0
        updated = codewords.copy()
        updated[filled] = sums[filled] / counts[filled]
        if np.array_equal(updated, codewords):
            break
        codewords = updated
    return codewords


def kmeans_scalar(
    values: np.ndarray, k: int, *, signed: bool = False, max_iters: int = 100
) -> NormCodebook:
    """Scalar Lloyd quantizer, codewords sorted. Values must be
    non-negative unless ``signed``."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise InvalidInputError("cannot train a norm codebook on no values")
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("values must be finite")
    if not signed and values.min() < 0:
        raise InvalidInputError("norm values must be non-negative")
    if k < 1:
        raise InvalidInputError("k must be at least 1")
    return NormCodebook(_scalar_lloyd(values, k, max_iters), signed=signed)


def kmeans_scalar_signed(values: np.ndarray, k: int, *, max_iters: int = 100) -> NormCodebook:
    """``kmeans_scalar(values, k, signed=True)``, kept under its old name."""
    return kmeans_scalar(values, k, signed=True, max_iters=max_iters)


def encode_scalar(values: np.ndarray, codebook: NormCodebook) -> np.ndarray:
    """Nearest-codeword indices; boundary ties pick the lower index."""
    values = np.asarray(values, dtype=np.float64).ravel()
    cw = codebook.values
    bounds = (cw[:-1] + cw[1:]) / 2.0
    return np.searchsorted(bounds, values, side="left")
