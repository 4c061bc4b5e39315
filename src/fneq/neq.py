"""Norm-explicit quantization: training, reconstruction and top-k scan.

An index holds ``m`` codebooks split into ``m_prime`` scalar norm
codebooks and ``m - m_prime`` vector codebooks for the unit direction.
Training (per item ``x``):

1. compute the direction ``x' = x / ||x||``,
2. train the direction codebooks on sub-vectors of ``x'`` — plain
   k-means, or interval fuzzy clustering fused into a crisp codebook,
3. encode ``x'``; the codebooks cover disjoint sub-spaces, so the estimate
   ``x_bar`` has ``||x_bar||²`` = the chosen codewords' squared norms summed,
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

The plain ``pq`` and ``rq`` baselines run through the same artifact,
trainer and scan with zero norm codebooks (norm factor fixed at 1), and
fit and encode the raw items; ``rq`` stacks its stages on one full-width
sub-space, where the shared kernels sum them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .aggregation import FuzzyMeasure, fuse_codebooks
from .clustering import ClusteringParams, _check_seed, encode_scalar, it2fpcm, kmeans_scalar
from .core import (Codebook, CodeMatrix, Dataset, NormCodebook, SubVectorLayout, _thread_map,
                   row_norms)
from .errors import CorruptionError, InvalidInputError
from .quantizers import (
    ADCTable, _fit_codebooks, _kmeans_fit, build_adc_table, decode, encode_batch,
)

MODES = ("pq", "rq", "neq_kmeans", "fuzzy2_neq")

#: Guard against a degenerate all-cancelling direction reconstruction.
_MIN_RECON_NORM = 1e-30
_BLOCK = 8192  #: Rows per block that ``reencode`` codes on one thread.


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


@dataclass(frozen=True)
class IndexArtifact:
    """The queryable product of training: codebooks, codes and metadata.

    Immutable after construction; concurrent queries may share it freely.
    Codebook values are rounded to float32 so that persistence is exact.
    Construction enforces every rule of a valid index: an artifact whose
    codebooks all hold ``k_star`` codewords saves and loads back equal.
    """

    mode: str
    layout: SubVectorLayout
    norm_codebooks: tuple[NormCodebook, ...]
    dir_codebooks: tuple[Codebook, ...]
    codes: CodeMatrix
    metadata: IndexMetadata

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        md = self.metadata
        _check_seed(md.seed)
        if md.m_prime != len(self.norm_codebooks):
            raise InvalidInputError("m_prime disagrees with the norm codebook count")
        if md.m != len(self.norm_codebooks) + len(self.dir_codebooks):
            raise InvalidInputError("m disagrees with the total codebook count")
        if (md.m_prime > 0) != (self.mode in ("neq_kmeans", "fuzzy2_neq")):
            raise InvalidInputError("norm-explicit modes, and only they, have norm codebooks")
        if self.codes.m != md.m:
            raise InvalidInputError("code matrix width disagrees with m")
        if self.codes.n != md.n:
            raise InvalidInputError(f"metadata n={md.n} disagrees with {self.codes.n} coded items")
        sizes = tuple(cb.k_star for cb in (*self.norm_codebooks, *self.dir_codebooks))
        if self.codes.k_stars != sizes:
            raise InvalidInputError(f"code bounds {self.codes.k_stars} are not the codebook sizes")
        norm_cbs = tuple(
            NormCodebook(_f32_exact(cb.values), signed=s > 0)
            for s, cb in enumerate(self.norm_codebooks)
        )
        dir_cbs = tuple(Codebook(_f32_exact(cb.codewords)) for cb in self.dir_codebooks)
        layout = self.layout
        if layout.D != md.D:
            raise InvalidInputError(f"layout D={layout.D} disagrees with metadata D={md.D}")
        if any(cb.dim != layout.D_star for cb in self.dir_codebooks):
            raise InvalidInputError(f"direction codebooks must have width D_star={layout.D_star}")
        if self.mode == "rq" and (layout.m_dir != 1 or not self.dir_codebooks):
            raise InvalidInputError("rq needs at least one stage, on a layout with m_dir=1")
        if self.mode != "rq" and len(self.dir_codebooks) != layout.m_dir:
            raise InvalidInputError(f"expected one direction codebook per sub-space ({layout.m_dir})")
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
    """Round to the nearest float32 value, kept in float64 storage; a value
    beyond float32's range raises ``InvalidInputError`` (``fneq train`` exit 3)."""
    with np.errstate(over="ignore"):
        out = np.asarray(a, dtype=np.float32).astype(np.float64)
    if not np.all(np.isfinite(out)):
        raise InvalidInputError("codebook values must lie within float32's range (±3.4e38)")
    return out


def _mode_m_dir(mode: str, m: int, m_prime: int) -> int:
    """Direction sub-spaces: one for ``rq``'s stages, else one per direction codebook."""
    if m_prime >= m:
        raise InvalidInputError(f"m={m} must exceed m_prime={m_prime}")
    return 1 if mode == "rq" else m - m_prime


def _check_training(mode: str, m: int, m_prime: int, k_star: int) -> tuple[int, int]:
    """``train_index``'s checks that need no data; returns its ``m_prime`` and ``m_dir``."""
    if mode not in MODES:
        raise InvalidInputError(f"unknown mode {mode!r}")
    if mode in ("pq", "rq"):
        m_prime = 0
    elif m_prime < 1:
        raise InvalidInputError("m_prime must be at least 1")
    least = 2 if m_prime else 1  # norm stage 0 may reserve a codeword for zero rows
    if k_star < least:
        raise InvalidInputError(f"k_star must be at least {least}")
    return m_prime, _mode_m_dir(mode, m, m_prime)


def _fuzzy_fit(k_star: int, params: ClusteringParams, measure: FuzzyMeasure | None, init: np.ndarray | None = None):
    """``fuzzy2_neq``'s counterpart of ``quantizers._kmeans_fit``: ``k_star`` interval
    type-2 clusters at the fit's seed (from ``it2fpcm``'s ``init`` if given), fused
    into one crisp codebook, and no labels."""
    def fit(points: np.ndarray, seed: int) -> tuple[Codebook, None]:
        return fuse_codebooks(it2fpcm(points, replace(params, seed=seed, c=k_star), init=init), measure), None
    return fit


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
    (``m_prime`` is ignored); ``rq`` reads ``m`` as the stage count. Every
    mode fits its direction codebooks by the sub-space rule, rounds them
    to float32 and codes the training items with the encoder of
    ``reencode``.
    """
    m_prime, m_dir = _check_training(mode, m, m_prime, k_star)
    layout = SubVectorLayout(D=dataset.dim, m_dir=m_dir)
    if m_prime:
        norms, nonzero, points = _unit_directions(dataset.items)
        points = points[nonzero]
    else:
        points = dataset.items

    fit = _fuzzy_fit(k_star, params, measure) if mode == "fuzzy2_neq" else _kmeans_fit(k_star, params)
    fitted = _fit_codebooks(points, m - m_prime, layout, fit, params.seed)
    dir_codebooks = tuple(Codebook(_f32_exact(cb.codewords)) for cb, _ in fitted)

    def fit_stage(s: int, residual: np.ndarray) -> NormCodebook:
        # Zero-norm items must reconstruct to the zero vector, so stage 0 gives their
        # point mass its own exact codeword (``IndexArtifact`` sets each stage's sign).
        zeros = s == 0 and not nonzero.all()
        values = kmeans_scalar(residual[nonzero] if zeros else residual, k_star - zeros, signed=True).values
        return NormCodebook(_f32_exact(np.sort(np.append(values, 0.0)) if zeros else values), signed=True)

    norm_codebooks, codes = _encode(dataset.items, layout, dir_codebooks, m_prime, fit_stage)
    md = IndexMetadata(
        D=dataset.dim, n=dataset.n, m=m, m_prime=m_prime,
        k_star=k_star, seed=params.seed,
    )
    return IndexArtifact(
        mode=mode,
        layout=layout,
        norm_codebooks=norm_codebooks,
        dir_codebooks=dir_codebooks,
        codes=CodeMatrix(codes, k_stars=(k_star,) * m),
        metadata=md,
    )


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
    return train_index(dataset, mode, m, m_prime, k_star, params, measure=measure)


def _unit_directions(items: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row norms, the mask of non-zero rows and every row at unit length (zero rows stay 0)."""
    norms = row_norms(items)
    nonzero = norms > 0
    return norms, nonzero, np.divide(items, norms[:, None], out=np.zeros_like(items), where=nonzero[:, None])


def _encode(items, layout, dir_codebooks, m_prime, stage_codebook):
    """Norm codebooks and codes of ``items``: ``encode_batch`` without
    norm codebooks. Otherwise the unit directions are coded, and the
    relative norms ``||x|| / ||x_bar||``, with ``||x_bar||`` from the
    chosen codewords' squared norms (``_recon_sq_norms``), are coded stage
    by stage on the residual; ``stage_codebook(s, residual)`` gives stage
    ``s``'s codebook (training fits it there, re-encoding looks it up).
    All-zero rows get code 0 everywhere and relative norm 0."""
    if m_prime == 0:
        return (), encode_batch(items, dir_codebooks, layout)
    norms, nonzero, directions = _unit_directions(items)
    codes = np.zeros((items.shape[0], m_prime + len(dir_codebooks)), dtype=np.int64)
    codes[:, m_prime:] = encode_batch(directions, dir_codebooks, layout)
    codes[~nonzero] = 0
    recon = np.sqrt(_recon_sq_norms(dir_codebooks, layout.m_dir, codes[:, m_prime:]))
    residual = np.divide(norms, np.maximum(recon, _MIN_RECON_NORM), out=np.zeros_like(norms), where=nonzero)
    norm_codebooks = []
    for s in range(m_prime):
        cb = stage_codebook(s, residual)
        codes[:, s] = encode_scalar(residual, cb)
        residual = residual - cb.values[codes[:, s]]
        norm_codebooks.append(cb)
    return tuple(norm_codebooks), codes


def reencode(index: IndexArtifact, dataset: Dataset) -> IndexArtifact:
    """Encode a (possibly different) item corpus with an index's trained
    codebooks, keeping the codebooks fixed.

    This is how a codebook fitted on a training sample indexes the full
    corpus, through the encoder that coded the training items. Blocks of
    ``_BLOCK`` rows run through ``_thread_map``; with the codebooks fixed
    every step of ``_encode`` is row by row, so neither changes a code.
    """
    md = index.metadata
    if dataset.dim != md.D:
        raise InvalidInputError(f"dataset has D={dataset.dim} but the index expects D={md.D}")

    def block(start: int) -> np.ndarray:
        return _encode(
            dataset.items[start : start + _BLOCK], index.layout, index.dir_codebooks,
            md.m_prime, lambda s, residual: index.norm_codebooks[s],
        )[1]

    codes = np.concatenate(_thread_map(block, range(0, dataset.n, _BLOCK)))
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
    vec = decode(codes[index.m_prime :], index.dir_codebooks, index.layout)
    return norm_factor(codes, index) * vec


def query_tables(q: np.ndarray, index: IndexArtifact) -> ADCTable:
    """Per-query inner-product tables against the direction codebooks."""
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
    adds, ``m - m_prime`` lookups and, with norm codebooks, one multiply.
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
    if index.m_prime == 0:
        return r_total
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
    r_total = _gather_sum(tables, codes[:, index.m_prime :])
    if index.m_prime:
        r_total *= _norm_sums(codes, index)
    return r_total


def _gather_sum(tables, codes: np.ndarray) -> np.ndarray:
    """Per item, the sum of ``tables[j][codes[:, j]]`` over the tables, in order."""
    total = (tables[0] + 0.0).take(codes[:, 0])  # -0.0 becomes +0.0, as ``0.0 + x`` does
    for j in range(1, len(tables)):
        total += tables[j].take(codes[:, j])
    return total


def _norm_sums(codes: np.ndarray, index: IndexArtifact) -> np.ndarray:
    """Per-item sum of the selected norm codewords."""
    return _gather_sum([cb.values for cb in index.norm_codebooks], codes)


def _recon_sq_norms(dir_codebooks, m_dir: int, dir_codes: np.ndarray) -> np.ndarray:
    """Squared norms of the direction reconstructions of ``dir_codes``: the
    codeword norms plus twice the Gram entries of each pair of codebooks on
    one sub-space (only ``rq`` stacks such pairs), summed in one gather."""
    cbs = [cb.codewords for cb in dir_codebooks]
    pairs = [(j, l) for l in range(len(cbs)) for j in range(l % m_dir, l, m_dir)]
    tables = [np.einsum("ij,ij->i", c, c) for c in cbs]
    tables += [2.0 * (cbs[j] @ cbs[l].T).ravel() for j, l in pairs]
    pair_codes = [dir_codes[:, j].astype(np.intp) * len(cbs[l]) + dir_codes[:, l] for j, l in pairs]
    return _gather_sum(tables, np.vstack([dir_codes.T, *pair_codes]).T)


def item_sq_norms(index: IndexArtifact) -> np.ndarray:
    """Squared norms of the reconstructions (used by distance ranking)."""
    codes = index.codes.codes
    dir_sq = _recon_sq_norms(index.dir_codebooks, index.layout.m_dir, codes[:, index.m_prime :])
    if index.m_prime == 0:
        return dir_sq
    l_total = _norm_sums(codes, index)
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


def _ranked(q: np.ndarray, index: IndexArtifact, k: int, sq_norms: np.ndarray | None):
    """Top-``k`` ``(ids, scores)`` of one scan: estimated inner products, or
    negated squared distances when ``sq_norms`` (``item_sq_norms``) is given."""
    scores = scan_scores(q, index)
    if sq_norms is not None:
        q = np.asarray(q, dtype=np.float64)
        scores = -(q @ q - 2.0 * scores + sq_norms)
    ids = select_top_k(scores, k)
    return ids, scores[ids]


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
    higher still means better); in every mode that costs one more pass
    over the codes, and nothing decodes the corpus.
    """
    if ranking not in ("inner_product", "distance"):
        raise InvalidInputError(f"unknown ranking {ranking!r}")
    return _ranked(q, index, k, item_sq_norms(index) if ranking == "distance" else None)
