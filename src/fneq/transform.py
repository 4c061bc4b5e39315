"""Reduction of maximum inner product search to nearest neighbor search.

Items are lifted to ``D+1`` dimensions so that every lifted item lies on
a sphere of radius ``phi`` (the maximum item norm) and queries gain a
zero first coordinate. Inner products are preserved exactly, so the
nearest lifted item in L2 is the inner-product maximizer.

The lifted space is provided for testing and interop with NNS engines;
query scoring elsewhere in this package works directly on inner products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, row_norms
from .errors import DomainError, InvalidInputError

#: Tolerated negative radicand when an item sits on the norm boundary.
_RADICAND_SLACK = 1e-9


@dataclass(frozen=True)
class AugmentedSpace:
    """The lifted geometry: sphere radius ``phi`` and dimension ``D+1``."""

    phi: float
    D_aug: int

    def __post_init__(self):
        if self.phi < 0 or not np.isfinite(self.phi):
            raise InvalidInputError("phi must be a finite non-negative scalar")
        if self.D_aug < 2:
            raise InvalidInputError("augmented dimension must be at least 2")


def max_norm(dataset: Dataset) -> float:
    """Largest item norm in the dataset."""
    return float(row_norms(dataset.items).max())


def _lift_radicand(sq_norms: np.ndarray, phi: float) -> np.ndarray:
    radicand = phi * phi - sq_norms
    bad = radicand < -_RADICAND_SLACK
    if np.any(bad):
        worst = float(np.sqrt(sq_norms[bad].max()))
        raise DomainError(
            f"item norm {worst} exceeds phi={phi} beyond the rounding slack"
        )
    return np.maximum(radicand, 0.0)


def augment_item(x: np.ndarray, phi: float) -> np.ndarray:
    """Lift one item: ``(sqrt(phi^2 - ||x||^2), x)``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidInputError("augment_item expects a single vector")
    radicand = _lift_radicand(np.array([x @ x]), phi)
    return np.concatenate([np.sqrt(radicand), x])


def augment_items(items: np.ndarray, phi: float) -> np.ndarray:
    """Lift a whole item matrix at once."""
    items = np.asarray(items, dtype=np.float64)
    radicand = _lift_radicand(np.einsum("ij,ij->i", items, items), phi)
    return np.hstack([np.sqrt(radicand)[:, None], items])


def augment_query(q: np.ndarray) -> np.ndarray:
    """Lift one query: ``(0, q)``. Preserves all inner products exactly."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1:
        raise InvalidInputError("augment_query expects a single vector")
    return np.concatenate([[0.0], q])


def augment_queries(queries: np.ndarray) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    return np.hstack([np.zeros((queries.shape[0], 1)), queries])
