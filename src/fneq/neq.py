"""Norm-explicit quantization: training, reconstruction and top-k scan.

An index holds ``m`` codebooks split into ``m_prime`` scalar norm
codebooks and ``m - m_prime`` vector codebooks for the unit direction.
Training (per item ``x``):

1. compute the direction ``x' = x / ||x||``,
2. train the direction codebooks on sub-vectors of ``x'`` — plain
   k-means, or interval fuzzy clustering fused into a crisp codebook,
3. encode ``x'`` and decode the estimate ``x_bar``,
4. compute the relative norm ``r = ||x|| / ||x_bar||``,
5. quantize ``r`` with the norm codebooks (stage one on raw values,
   later stages on residuals).

Training and ``reencode`` share one encoder for steps 3-5 (training
fits each norm stage on the residual as it goes), so re-encoding the
training corpus reproduces the trained codes exactly.

Reconstruction multiplies the summed norm codewords with the
concatenated direction codewords; the query-time estimate accumulates
``m_prime`` scalar codewords and ``m - m_prime`` table lookups and
multiplies once, which equals the inner product with the reconstruction
exactly up to float associativity.

All-zero items have no direction: they are excluded from direction
training, carry relative norm 0 and code 0 everywhere, and reconstruct
to (near) zero once the norm codebook learns a zero codeword.

The plain ``pq`` and ``rq`` baselines run through the same artifact and
scan with zero norm codebooks (norm factor fixed at 1); residual stages
sum full-dimension codewords instead of concatenating sub-vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .aggregation import FuzzyMeasure, fuse_codebooks
from .clustering import (
    ClusteringParams,
    encode_scalar,
    it2fpcm,
    kmeans,
    kmeans_scalar,
)
from .core import Codebook, CodeMatrix, Dataset, NormCodebook, SubVectorLayout, row_norms
from .errors import CorruptionError, InvalidInputError
from .quantizers import (
    ADCTable,
    _subseeds,
    build_adc_table,
    build_stage_table,
    decode,
    encode_batch,
    nearest_codes,
    rq_decode,
    train_pq,
    train_rq,
)

MODES = ("pq", "rq", "neq_kmeans", "fuzzy2_neq")

#: Guard against a degenerate all-cancelling direction reconstruction.
_MIN_RECON_NORM = 1e-30


@dataclass
class OpCounter:
    """Tallies the per-item scan work: table lookups, scalar norm adds
    and final multiplies."""

    lookups: int = 0
    adds: int = 0
    multiplies: int = 0


@dataclass(frozen=True)
class IndexMetadata:
    D: int
    n: int
    m: int
    m_prime: int
    k_star: int
    seed: int
    params: ClusteringParams | None = None


@dataclass(frozen=True)
class IndexArtifact:
    """The queryable product of training: codebooks, codes and metadata.

    Immutable after construction; concurrent queries may share it freely.
    Codebook values are rounded to float32 so that persistence is exact.
    """

    mode: str
    layout: SubVectorLayout
    norm_codebooks: tuple[NormCodebook, ...]
    dir_codebooks: tuple[Codebook, ...]
    codes: CodeMatrix
    metadata: IndexMetadata
    measure: FuzzyMeasure | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        md = self.metadata
        if md.m_prime != len(self.norm_codebooks):
            raise InvalidInputError("m_prime disagrees with the norm codebook count")
        if md.m != len(self.norm_codebooks) + len(self.dir_codebooks):
            raise InvalidInputError("m disagrees with the total codebook count")
        if self.mode in ("neq_kmeans", "fuzzy2_neq") and md.m_prime < 1:
            raise InvalidInputError("norm-explicit modes need at least one norm codebook")
        if self.codes.m != md.m:
            raise InvalidInputError("code matrix width disagrees with m")
        if self.codes.n != md.n:
            raise InvalidInputError(f"metadata n={md.n} disagrees with {self.codes.n} coded items")
        norm_cbs = tuple(
            NormCodebook(_f32_exact(cb.values), signed=cb.signed)
            for cb in self.norm_codebooks
        )
        dir_cbs = tuple(Codebook(_f32_exact(cb.codewords)) for cb in self.dir_codebooks)
        object.__setattr__(self, "norm_codebooks", norm_cbs)
        object.__setattr__(self, "dir_codebooks", dir_cbs)

    @property
    def n(self) -> int:
        return self.codes.n

    @property
    def m_prime(self) -> int:
        return self.metadata.m_prime

    @property
    def n_parts(self) -> int:
        return len(self.dir_codebooks)


def _f32_exact(a: np.ndarray) -> np.ndarray:
    """Round to the nearest float32 value, kept in float64 storage."""
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def train_index(
    dataset: Dataset,
    mode: str,
    m: int,
    m_prime: int,
    k_star: int,
    params: ClusteringParams,
    measure: FuzzyMeasure | None = None,
) -> IndexArtifact:
    """Train any supported index type behind one entry point.

    For ``pq`` and ``rq`` the ``m`` codebooks are all vector codebooks
    (``m_prime`` is ignored); ``rq`` reads ``m`` as the stage count.
    """
    if mode in ("pq", "rq"):
        if mode == "pq":
            base = train_pq(dataset, m, k_star, params)
            layout = base.layout
        else:
            base = train_rq(dataset, m, k_star, params)
            layout = SubVectorLayout(D=dataset.dim, m_dir=1)
        md = IndexMetadata(
            D=dataset.dim, n=base.codes.n, m=len(base.codebooks), m_prime=0,
            k_star=base.codebooks[0].k_star, seed=params.seed, params=params,
        )
        return IndexArtifact(
            mode=mode,
            layout=layout,
            norm_codebooks=(),
            dir_codebooks=base.codebooks,
            codes=base.codes,
            metadata=md,
        )
    if mode in ("neq_kmeans", "fuzzy2_neq"):
        return train_neq(dataset, m, m_prime, k_star, mode, params, measure=measure)
    raise InvalidInputError(f"unknown mode {mode!r}")


def train_neq(
    dataset: Dataset,
    m: int,
    m_prime: int,
    k_star: int,
    mode: str,
    params: ClusteringParams,
    measure: FuzzyMeasure | None = None,
) -> IndexArtifact:
    """Train a norm-explicit index (k-means or fuzzy direction codebooks)."""
    if mode not in ("neq_kmeans", "fuzzy2_neq"):
        raise InvalidInputError(f"train_neq does not handle mode {mode!r}")
    if m_prime < 1:
        raise InvalidInputError("m_prime must be at least 1")
    if m_prime >= m:
        raise InvalidInputError("m_prime must be smaller than m")
    if k_star < 2:
        raise InvalidInputError("k_star must be at least 2")
    m_dir = m - m_prime
    layout = SubVectorLayout(D=dataset.dim, m_dir=m_dir)

    norms, nonzero, directions = _unit_directions(dataset.items)
    if directions.shape[0] < k_star:
        raise InvalidInputError(
            f"k_star={k_star} exceeds the {directions.shape[0]} items with a direction"
        )

    seeds = _subseeds(params.seed, m_dir)
    dir_codebooks = []
    for j, sl in enumerate(layout.slices()):
        sub = directions[:, sl]
        sub_params = replace(params, seed=seeds[j], c=k_star)
        if mode == "neq_kmeans":
            cb = kmeans(sub, k_star, sub_params).centroids
        else:
            cb = fuse_codebooks(it2fpcm(sub, sub_params), measure)
        dir_codebooks.append(Codebook(_f32_exact(cb.codewords)))
    dir_codebooks = tuple(dir_codebooks)
    dir_codes, relative = _encode_directions(norms, nonzero, directions, dir_codebooks, layout)

    def fit_stage(s: int, residual: np.ndarray) -> NormCodebook:
        if s == 0 and not nonzero.all():
            # Zero-norm items must reconstruct to the zero vector, so the
            # zero point-mass gets its own exact codeword.
            tail = kmeans_scalar(residual[nonzero], k_star - 1).values
            values = np.sort(np.concatenate([[0.0], tail]))
        elif s == 0:
            values = kmeans_scalar(residual, k_star).values
        else:
            values = kmeans_scalar(residual, k_star, signed=True).values
        return NormCodebook(_f32_exact(values), signed=s > 0)

    norm_codebooks, norm_codes = _encode_norms(relative, m_prime, fit_stage)
    md = IndexMetadata(
        D=dataset.dim, n=dataset.n, m=m, m_prime=m_prime,
        k_star=k_star, seed=params.seed, params=params,
    )
    return IndexArtifact(
        mode=mode,
        layout=layout,
        norm_codebooks=norm_codebooks,
        dir_codebooks=dir_codebooks,
        codes=CodeMatrix(np.hstack([norm_codes, dir_codes]), k_stars=(k_star,) * m),
        metadata=md,
        measure=measure,
    )


def _unit_directions(items: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row norms, the mask of non-zero rows and those rows at unit length."""
    norms = row_norms(items)
    nonzero = norms > 0
    return norms, nonzero, items[nonzero] / norms[nonzero, None]


def _encode_directions(norms, nonzero, directions, dir_codebooks, layout):
    """Direction codes and relative norms ``||x|| / ||x_bar||``; all-zero
    rows get code 0 everywhere and relative norm 0."""
    dir_codes = np.zeros((norms.shape[0], layout.m_dir), dtype=np.int64)
    relative = np.zeros(norms.shape[0])
    dir_codes[nonzero] = encode_batch(directions, dir_codebooks, layout)
    recon = decode(dir_codes[nonzero], dir_codebooks, layout)
    relative[nonzero] = norms[nonzero] / np.maximum(row_norms(recon), _MIN_RECON_NORM)
    return dir_codes, relative


def _encode_norms(relative, m_prime, stage_codebook):
    """Norm codebooks and codes of ``relative``, stage by stage on the
    residual. ``stage_codebook(s, residual)`` gives stage ``s``'s
    codebook: training fits it there, re-encoding looks it up."""
    codebooks = []
    codes = np.zeros((relative.shape[0], m_prime), dtype=np.int64)
    residual = relative
    for s in range(m_prime):
        cb = stage_codebook(s, residual)
        idx = encode_scalar(residual, cb)
        residual = residual - cb.values[idx]
        codebooks.append(cb)
        codes[:, s] = idx
    return tuple(codebooks), codes


def reencode(index: IndexArtifact, dataset: Dataset) -> IndexArtifact:
    """Encode a (possibly different) item corpus with an index's trained
    codebooks, keeping the codebooks fixed.

    This is how a codebook fitted on a training sample indexes the full
    corpus: direction codes by nearest codeword, relative norms against
    the fixed direction codebooks, norm codes stage by stage.
    """
    md = index.metadata
    if dataset.dim != md.D:
        raise InvalidInputError(
            f"dataset has D={dataset.dim} but the index expects D={md.D}"
        )
    if index.mode == "rq":
        residual = dataset.items.copy()
        codes = np.empty((dataset.n, md.m), dtype=np.int64)
        for s, cb in enumerate(index.dir_codebooks):
            idx = nearest_codes(residual, cb)
            residual -= cb.codewords[idx]
            codes[:, s] = idx
    elif index.mode == "pq":
        codes = encode_batch(dataset.items, index.dir_codebooks, index.layout)
    else:
        dir_codes, relative = _encode_directions(
            *_unit_directions(dataset.items), index.dir_codebooks, index.layout
        )
        _, norm_codes = _encode_norms(
            relative, md.m_prime, lambda s, residual: index.norm_codebooks[s]
        )
        codes = np.hstack([norm_codes, dir_codes])
    return replace(
        index,
        codes=CodeMatrix(codes, k_stars=index.codes.k_stars),
        metadata=replace(md, n=dataset.n),
    )


def _check_codes_row(codes: np.ndarray, index: IndexArtifact) -> np.ndarray:
    codes = np.asarray(codes)
    if codes.shape != (index.metadata.m,):
        raise CorruptionError(f"expected {index.metadata.m} codes per item")
    return codes


def norm_factor(codes: np.ndarray, index: IndexArtifact) -> float:
    """Sum of the selected norm codewords; 1 when the index has none."""
    if index.m_prime == 0:
        return 1.0
    total = 0.0
    for s, cb in enumerate(index.norm_codebooks):
        code = int(codes[s])
        if code < 0 or code >= cb.k_star:
            raise CorruptionError(f"norm code {code} out of range at stage {s}")
        total += float(cb.values[code])
    return total


def reconstruct(codes: np.ndarray, index: IndexArtifact) -> np.ndarray:
    """Rebuild one item: summed norm codewords times the direction part."""
    codes = _check_codes_row(codes, index)
    dir_part = codes[index.m_prime :]
    if index.mode == "rq":
        vec = rq_decode(dir_part, index.dir_codebooks)
    else:
        vec = decode(dir_part, index.dir_codebooks, index.layout)
    return norm_factor(codes, index) * vec


def query_tables(q: np.ndarray, index: IndexArtifact) -> ADCTable:
    """Per-query inner-product tables against the direction codebooks."""
    if index.mode == "rq":
        return build_stage_table(q, index.dir_codebooks)
    return build_adc_table(q, index.dir_codebooks, index.layout)


def estimate_inner_product(
    q: np.ndarray,
    item_codes: np.ndarray,
    index: IndexArtifact,
    adc: ADCTable | None = None,
    op_counter: OpCounter | None = None,
) -> float:
    """Estimate ``<q, x>`` from one item's codes.

    Accumulates the norm codewords, then one table lookup per direction
    codebook, and multiplies the two sums: exactly ``m_prime`` scalar
    adds, ``m - m_prime`` lookups and one multiply per item.
    """
    codes = _check_codes_row(item_codes, index)
    if adc is None:
        adc = query_tables(q, index)
    tables = adc.tables
    l_total = norm_factor(codes, index)
    if op_counter is not None:
        op_counter.adds += index.m_prime
    r_total = 0.0
    for j in range(index.n_parts):
        code = int(codes[index.m_prime + j])
        if code < 0 or code >= index.dir_codebooks[j].k_star:
            raise CorruptionError(f"direction code {code} out of range in part {j}")
        r_total += float(tables[j, code])
        if op_counter is not None:
            op_counter.lookups += 1
    if op_counter is not None:
        op_counter.multiplies += 1
    return l_total * r_total


def per_item_cost(index: IndexArtifact) -> dict[str, int]:
    """The scan-cost contract: lookups, norm adds and multiplies per item."""
    return {
        "lookups": index.n_parts,
        "adds": index.m_prime,
        "multiplies": 1 if index.m_prime else 0,
    }


def scan_scores(
    q: np.ndarray, index: IndexArtifact, limit: int | None = None
) -> np.ndarray:
    """Estimated inner products of ``q`` against the first ``limit`` items
    (all items by default). Vectorized form of the per-item estimate."""
    tables = query_tables(q, index).tables
    codes = index.codes.codes[: index.n if limit is None else limit]
    r_total = np.zeros(codes.shape[0])
    for j in range(index.n_parts):
        r_total += tables[j].take(codes[:, index.m_prime + j])
    if index.m_prime == 0:
        return r_total
    l_total = np.zeros(codes.shape[0])
    for s, cb in enumerate(index.norm_codebooks):
        l_total += cb.values.take(codes[:, s])
    return l_total * r_total


def item_sq_norms(index: IndexArtifact, limit: int | None = None) -> np.ndarray:
    """Squared norms of the reconstructions (used by distance ranking)."""
    codes = index.codes.codes[: index.n if limit is None else limit]
    if index.mode == "rq":
        recon = rq_decode(codes[:, index.m_prime :], index.dir_codebooks)
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


def select_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Ids of the ``k`` largest scores, ranked descending with ties broken
    by ascending id. Exact under duplicated scores."""
    n = scores.shape[0]
    if k > n:
        raise InvalidInputError(f"k={k} exceeds the {n} scanned items")
    if k == 0:
        return np.empty(0, dtype=np.int64)
    if k < n:
        kth = np.partition(scores, n - k)[n - k]
        cand = np.flatnonzero(scores >= kth)
    else:
        cand = np.arange(n)
    order = cand[np.lexsort((cand, -scores[cand]))]
    return order[:k].astype(np.int64)


def top_k(
    q: np.ndarray,
    index: IndexArtifact,
    k: int = 20,
    ranking: str = "inner_product",
) -> tuple[np.ndarray, np.ndarray]:
    """Full-scan top-k retrieval.

    Returns ``(ids, scores)`` ranked by estimated inner product
    descending. ``ranking="distance"`` instead ranks by Euclidean
    distance between the query and the reconstructions (an experimental
    alternative; scores are then negated squared distances so that
    higher still means better).
    """
    scores = scan_scores(q, index)
    if ranking == "distance":
        q = np.asarray(q, dtype=np.float64)
        scores = -(q @ q - 2.0 * scores + item_sq_norms(index))
    elif ranking != "inner_product":
        raise InvalidInputError(f"unknown ranking {ranking!r}")
    ids = select_top_k(scores, k)
    return ids, scores[ids]
