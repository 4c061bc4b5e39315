"""Baseline vector quantizers: product quantization and residual
quantization, plus the codebook fitter, encoder, decoder and per-query
inner-product lookup table that both share with the norm-explicit index.
All of them follow the sub-space rule of ``SubVectorLayout``, training
included."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .clustering import ClusteringParams, _nearest, kmeans
from .core import Codebook, CodeMatrix, Dataset, SubVectorLayout, _frozen, _require_finite, _thread_map
from .errors import CorruptionError, InvalidInputError


@dataclass(frozen=True)
class PQIndex:
    """One codebook per sub-space plus the codes of the training items."""

    layout: SubVectorLayout
    codebooks: tuple[Codebook, ...]
    codes: CodeMatrix

    def __post_init__(self):
        if len(self.codebooks) != self.layout.m_dir:
            raise InvalidInputError("expected one codebook per sub-space")
        for cb in self.codebooks:
            if cb.dim != self.layout.D_star:
                raise InvalidInputError("codebook width must equal D_star")
        object.__setattr__(self, "codebooks", tuple(self.codebooks))


@dataclass(frozen=True)
class RQIndex:
    """Full-dimension stage codebooks; reconstruction sums one codeword
    per stage."""

    codebooks: tuple[Codebook, ...]
    codes: CodeMatrix

    def __post_init__(self):
        dims = {cb.dim for cb in self.codebooks}
        if len(dims) != 1:
            raise InvalidInputError("all stage codebooks must share the data dimension")
        object.__setattr__(self, "codebooks", tuple(self.codebooks))

    @property
    def dim(self) -> int:
        return self.codebooks[0].dim


@dataclass(frozen=True)
class ADCTable:
    """Per-query partial inner products: ``tables[j][i] = <q_j, c_{j,i}>`` (a read-only copy)."""

    tables: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tables", _frozen(np.asarray(self.tables, dtype=np.float64)))


def _subseeds(seed: int, count: int) -> list[int]:
    """Independent per-sub-quantizer seeds, deterministic in ``seed``."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def _fit_codebooks(points: np.ndarray, count: int, layout: SubVectorLayout, fit, seed: int) -> list:
    """``count`` pairs ``(codebook, labels)``: pair ``j`` is ``fit(sub_points, seed_j)``
    on sub-space ``j % m_dir`` of the residual that earlier codebooks there leave
    (each point minus its codeword by the fit's labels, read only where a later
    codebook shares the sub-space), with ``_subseeds(seed, count)``, by the
    sub-space rule of ``SubVectorLayout``.

    Each round of ``m_dir`` independent fits runs through ``_thread_map``.
    """
    seeds = _subseeds(seed, count)
    slices = layout.slices()
    residual = points.copy() if count > layout.m_dir else points
    fitted = []
    for start in range(0, count, layout.m_dir):
        if start:
            for (cb, labels), sl in zip(fitted[-layout.m_dir :], slices):
                residual[:, sl] -= cb.codewords[labels]
        round_seeds = seeds[start : start + layout.m_dir]
        fitted += _thread_map(lambda sl, s: fit(residual[:, sl], s), slices, round_seeds)
    return fitted


def _codebook_slices(codebooks: tuple[Codebook, ...], layout: SubVectorLayout) -> list[slice]:
    """Each codebook's sub-space, by the rule of ``SubVectorLayout``."""
    if len(codebooks) < layout.m_dir:
        raise InvalidInputError(f"expected at least {layout.m_dir} codebooks")
    slices = layout.slices()
    return [slices[j % layout.m_dir] for j in range(len(codebooks))]


def nearest_codes(vectors: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Index of the nearest codeword per row; ties pick the lowest index. It
    equals the ``squared_distances`` argmin bit for bit (``clustering._nearest``)."""
    return _nearest(vectors, codebook.codewords)[0]


def encode(
    x: np.ndarray, codebooks: tuple[Codebook, ...], layout: SubVectorLayout
) -> np.ndarray:
    """Nearest-codeword code per codebook for one vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (layout.D,):
        raise InvalidInputError(f"expected a vector of length {layout.D}")
    return encode_batch(x[None, :], codebooks, layout)[0]


def encode_batch(
    items: np.ndarray, codebooks: tuple[Codebook, ...], layout: SubVectorLayout
) -> np.ndarray:
    """Nearest-codeword codes, one column per codebook, by the sub-space
    rule of ``SubVectorLayout`` (residual stages where codebooks repeat)."""
    items = np.asarray(items, dtype=np.float64)
    if items.ndim != 2 or items.shape[1] != layout.D:
        raise InvalidInputError(f"expected rows of length {layout.D}")
    slices = _codebook_slices(codebooks, layout)
    residual = items.copy() if len(codebooks) > layout.m_dir else items
    codes = np.empty((items.shape[0], len(codebooks)), dtype=np.int64)
    for j, (cb, sl) in enumerate(zip(codebooks, slices)):
        codes[:, j] = nearest_codes(residual[:, sl], cb)
        if j + layout.m_dir < len(codebooks):
            residual[:, sl] -= cb.codewords[codes[:, j]]
    return codes


def decode(
    codes: np.ndarray, codebooks: tuple[Codebook, ...], layout: SubVectorLayout
) -> np.ndarray:
    """Sum the selected codewords into their sub-spaces: concatenation
    for one codebook per sub-space, a stage sum for residual stages."""
    codes = np.asarray(codes)
    single = codes.ndim == 1
    if single:
        codes = codes[None, :]
    if codes.shape[1] != len(codebooks):
        raise InvalidInputError(f"expected {len(codebooks)} codes per item")
    out = np.zeros((codes.shape[0], layout.D))
    for j, (cb, sl) in enumerate(zip(codebooks, _codebook_slices(codebooks, layout))):
        col = codes[:, j]
        if col.size and (col.min() < 0 or col.max() >= cb.k_star):
            raise CorruptionError(f"code out of range for codebook {j}")
        out[:, sl] += cb.codewords[col]
    return out[0] if single else out


#: Training fits stop once a Lloyd iteration lowers the inertia by at most
#: this share of it (``kmeans``'s ``tol``); recall is flat from there on.
TRAINING_TOL = 1e-4


def _kmeans_fit(k_star: int, params: ClusteringParams):
    """The ``fit`` that every k-means trainer hands to ``_fit_codebooks``:
    ``k_star`` centroids at the fit's seed, stopped at ``TRAINING_TOL``,
    labelled by the encoder's kernel (``kmeans``' ``exact_inertia=False``),
    with the final assignments: each point's nearest centroid."""

    def fit(points: np.ndarray, seed: int) -> tuple[Codebook, np.ndarray]:
        result = kmeans(points, k_star, replace(params, seed=seed), tol=TRAINING_TOL, exact_inertia=False)
        return result.centroids, result.assignments

    return fit


def _train_kmeans(dataset: Dataset, count: int, layout: SubVectorLayout, k_star: int, params):
    """``count`` k-means codebooks by the sub-space rule and the codes of
    the training items, each its nearest codeword: the final k-means
    assignment."""
    if k_star > dataset.n:
        raise InvalidInputError(f"k_star={k_star} exceeds n={dataset.n}")
    fit = _kmeans_fit(k_star, params)
    codebooks, labels = zip(*_fit_codebooks(dataset.items, count, layout, fit, params.seed))
    return codebooks, CodeMatrix(np.stack(labels, axis=1), k_stars=(k_star,) * count)


def train_pq(
    dataset: Dataset, m_dir: int, k_star: int, params: ClusteringParams
) -> PQIndex:
    """Independent k-means per sub-space."""
    layout = SubVectorLayout(D=dataset.dim, m_dir=m_dir)
    return PQIndex(layout, *_train_kmeans(dataset, m_dir, layout, k_star, params))


def train_rq(
    dataset: Dataset, stages: int, k_star: int, params: ClusteringParams
) -> RQIndex:
    """Stage 1 clusters the raw data; every later stage clusters the
    residual left by the previous reconstructions."""
    if stages < 1:
        raise InvalidInputError("stages must be at least 1")
    layout = SubVectorLayout(D=dataset.dim, m_dir=1)
    return RQIndex(*_train_kmeans(dataset, stages, layout, k_star, params))


def build_adc_table(
    q: np.ndarray, codebooks: tuple[Codebook, ...], layout: SubVectorLayout
) -> ADCTable:
    """Precompute ``<q_j, codeword>`` for every codebook and codeword.

    One table costs ``O(k_star * D_star)`` per codebook; scanning an item
    afterwards is one lookup per codebook. A non-finite ``q`` raises ``InvalidInputError``.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (layout.D,):
        raise InvalidInputError(f"expected a query of length {layout.D}")
    _require_finite(q, "q")
    k_star = max(cb.k_star for cb in codebooks)
    tables = np.zeros((len(codebooks), k_star))
    for j, (cb, sl) in enumerate(zip(codebooks, _codebook_slices(codebooks, layout))):
        tables[j, : cb.k_star] = cb.codewords @ q[sl]
    return ADCTable(tables)
