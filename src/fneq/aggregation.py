"""Sugeno-integral fusion of interval fuzzy codebooks.

The integral aggregates a finite set of sources, each carrying an
evaluation ``h`` in [0, 1] and a membership degree in [0, 1]. The two
are combined with the product t-norm, sources are ranked by combined
value, and the integral is ``max_i min(combined_(i), g(top-i set))``
for a fuzzy measure ``g``.

Codebook fusion applies this per cluster and per dimension to the two
sources produced by interval clustering (the lower and upper centroid),
after an affine rescale of the pair onto [0, 1]. The affine map is
order-preserving, so the integral's ordinal semantics survive, and the
fused coordinate always stays inside the interval spanned by the two
sources.

Two distinct sources rescale to evaluations of exactly 0 and 1, so the
integral reduces to ``min(w_s, g({s}))``: ``s`` is the bound with the
larger coordinate, ``w_s`` its membership and ``g({s})`` its measure
(``1/2`` under cardinality). The fused coordinate is
``lo + min(w_s, g({s})) * (hi - lo)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Codebook, _frozen
from .clustering import FuzzyClusterResult
from .errors import InvalidInputError


@dataclass(frozen=True)
class FuzzyMeasure:
    """A normalized monotone set function over aggregation sources.

    ``cardinality`` weighs a set purely by its size: ``g(A) = |A| / s``.
    ``explicit`` builds an additive measure from non-negative per-source
    densities, normalized so the full set has measure 1.
    """

    kind: str = "cardinality"
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("cardinality", "explicit"):
            raise InvalidInputError(f"unknown measure kind {self.kind!r}")
        if self.kind == "explicit":
            if self.weights is None or len(self.weights) == 0:
                raise InvalidInputError("explicit measure requires densities")
            w = np.asarray(self.weights, dtype=np.float64)
            if np.any(w < 0) or not np.all(np.isfinite(w)) or w.sum() == 0:
                raise InvalidInputError("densities must be non-negative with positive sum")
            object.__setattr__(self, "weights", tuple(float(v) for v in w))
        elif self.weights is not None:
            raise InvalidInputError("cardinality measure takes no densities")

    def prefix_values(self, order: np.ndarray) -> np.ndarray:
        """``g`` of the first 1..s sources under the given ranking."""
        s = len(order)
        if self.kind == "cardinality":
            return np.arange(1, s + 1, dtype=np.float64) / s
        w = np.asarray(self.weights, dtype=np.float64)
        if s != len(w):
            raise InvalidInputError(
                f"measure has {len(w)} densities but {s} sources were ranked"
            )
        return np.cumsum(w[order]) / w.sum()


@dataclass(frozen=True)
class SugenoInputs:
    """Evaluations and membership degrees for a set of sources, stored as read-only copies."""

    h_values: np.ndarray
    memberships: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h_values, dtype=np.float64).ravel()
        mem = np.asarray(self.memberships, dtype=np.float64).ravel()
        if h.size == 0:
            raise InvalidInputError("at least one source is required")
        if h.shape != mem.shape:
            raise InvalidInputError("h_values and memberships must have equal length")
        if np.any(h < 0) or np.any(h > 1) or not np.all(np.isfinite(h)):
            raise InvalidInputError("h_values must lie in [0, 1]")
        if np.any(mem < 0) or np.any(mem > 1) or not np.all(np.isfinite(mem)):
            raise InvalidInputError("memberships must lie in [0, 1]")
        object.__setattr__(self, "h_values", _frozen(h))
        object.__setattr__(self, "memberships", _frozen(mem))


def sugeno_integral(inputs: SugenoInputs, measure: FuzzyMeasure) -> float:
    """Discrete Sugeno integral with a product t-norm.

    The result lies between the smallest and largest combined value and
    is monotone in every input.
    """
    combined = inputs.h_values * inputs.memberships
    order = np.argsort(-combined, kind="stable")
    g = measure.prefix_values(order)
    return float(np.max(np.minimum(combined[order], g)))


def cluster_weights(result: FuzzyClusterResult) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate membership per cluster for each interval bound: the mean
    membership over all points."""
    return result.membership_lower.mean(axis=1), result.membership_upper.mean(axis=1)


def fuse_codebooks(
    result: FuzzyClusterResult, measure: FuzzyMeasure | None = None
) -> Codebook:
    """Fuse the interval centroid pair into one crisp codebook.

    Per cluster and dimension, the lower and upper centroid coordinates
    are rescaled onto [0, 1], weighted by their bound's aggregate
    membership, Sugeno-integrated and mapped back. Coordinates on which
    both bounds agree pass through unchanged. Uses the two-source closed
    form of the module docstring, over all clusters and dimensions at once.
    """
    if measure is None:
        measure = FuzzyMeasure()
    w_lo, w_up = (w[:, None] for w in cluster_weights(result))
    g_lo = measure.prefix_values(np.array([0, 1]))[0]
    g_up = measure.prefix_values(np.array([1, 0]))[0]
    v_lo = result.centroids_lower
    v_up = result.centroids_upper
    top = np.where(v_up > v_lo, np.minimum(w_up, g_up), np.minimum(w_lo, g_lo))
    lo = np.minimum(v_lo, v_up)
    fused = lo + top * (np.maximum(v_lo, v_up) - lo)
    return Codebook(np.where(v_lo == v_up, v_lo, fused))
