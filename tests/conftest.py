import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fneq.core import Dataset, QuerySet


def make_mips_data(n, dim, seed=0, norm_sigma=0.8):
    """Random directions scaled by log-normal norms: the regime where
    explicit norm quantization should pay off."""
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(n, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    norms = rng.lognormal(mean=0.0, sigma=norm_sigma, size=n)
    return directions * norms[:, None]


def make_gaussian_mixture(n, dim, centers, seed=0, spread=0.15):
    """Well-separated Gaussian blobs for clustering tests."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(-4.0, 4.0, size=(centers, dim))
    labels = rng.integers(0, centers, size=n)
    return means[labels] + rng.normal(scale=spread, size=(n, dim)), labels


def convex_toy(x1, x2):
    """A tuner objective with its minimum at the published interval (8.5, 9.1)."""
    return (x1 - 8.5) ** 2 + (x2 - 9.1) ** 2


@pytest.fixture
def small_dataset():
    return Dataset(make_mips_data(300, 16, seed=11))


@pytest.fixture
def small_queries():
    rng = np.random.default_rng(99)
    return QuerySet(rng.normal(size=(12, 16)))
