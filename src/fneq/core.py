"""Domain types and vector primitives shared by every quantizer.

Conventions used throughout the package:

* item and query matrices are row-major ``(count, D)`` float arrays,
* training and scoring run in float64; persisted codebooks are float32,
* arrays stored inside the frozen dataclasses are marked read-only, so
  instances are safe to share between threads.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, ZeroNormError

#: Widest supported codeword index (codes are stored as u8 or u16).
MAX_CODEWORDS = 65535

#: ``nested`` is set on the threads of every pool (``_thread_map``, ``_paired``).
_pool = threading.local()


def _frozen(a: np.ndarray) -> np.ndarray:
    """Return a C-contiguous read-only copy of ``a`` (codes are column-major)."""
    out = np.ascontiguousarray(a)
    if out is a:
        out = out.copy()
    out.flags.writeable = False
    return out


def thread_cap() -> int:
    """Threads of every pool (fits, re-encode blocks, grid pairs, ``it2fpcm``'s pair), from ``FNEQ_THREADS``.

    ``0`` or unset means the CPUs this process may run on (its affinity
    mask where the platform reports one). Raises ``InvalidInputError``
    for a value that is not a non-negative integer. On a pool's thread it
    is 1, so pools never nest: a pool opened there runs on one thread.
    """
    if getattr(_pool, "nested", False):
        return 1
    raw = os.environ.get("FNEQ_THREADS", "0").strip() or "0"
    try:
        cap = int(raw)
    except ValueError as exc:
        raise InvalidInputError(f"FNEQ_THREADS={raw!r} is not an integer") from exc
    if cap < 0:
        raise InvalidInputError(f"FNEQ_THREADS={raw!r} must be non-negative")
    if cap:
        return cap
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_map(fn, *iterables) -> list:
    """``list(map(fn, *iterables))`` on up to ``thread_cap()`` threads: results
    in order, and the first failing call's exception raised as is (``map``
    cancels the calls not yet started)."""
    with ThreadPoolExecutor(thread_cap(), initializer=setattr, initargs=(_pool, "nested", True)) as ex:
        return list(ex.map(fn, *iterables))


@contextmanager
def _paired(wanted: bool):
    """Yield ``pair(f, g) -> (f(), g())``, which runs ``g`` on one pool thread beside ``f``
    on the caller's, or ``None`` unless ``wanted`` and ``thread_cap() > 1``."""
    if not wanted or thread_cap() < 2:
        yield None
        return
    with ThreadPoolExecutor(1, initializer=setattr, initargs=(_pool, "nested", True)) as ex:
        def pair(f, g):
            second = ex.submit(g)
            return f(), second.result()

        yield pair


def _require_finite(a: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} must contain only finite values")


def _freeze_field(obj, name: str, ndim: int, nonempty: int = 0, capped: bool = False) -> None:
    """Store field ``name`` of ``obj`` as a read-only float64 copy: ``ndim`` axes, the first
    ``nonempty`` of them non-empty, at most ``MAX_CODEWORDS`` rows if ``capped``, all finite."""
    a = np.asarray(getattr(obj, name), dtype=np.float64)
    if a.ndim != ndim or 0 in a.shape[:nonempty]:
        kind = f"{'non-empty ' if nonempty else ''}{ndim}-D {'matrix' if ndim == 2 else 'array'}"
        raise InvalidInputError(f"{name} must be a {kind}, got shape {a.shape}")
    if capped and a.shape[0] > MAX_CODEWORDS:
        raise InvalidInputError(f"k_star={a.shape[0]} exceeds the {MAX_CODEWORDS} code-width bound")
    _require_finite(a, name)
    object.__setattr__(obj, name, _frozen(a))


@dataclass(frozen=True)
class Dataset:
    """An item corpus: ``n`` rows of ``D`` finite features."""

    items: np.ndarray

    def __post_init__(self):
        _freeze_field(self, "items", ndim=2, nonempty=2)

    @property
    def n(self) -> int:
        return self.items.shape[0]

    @property
    def dim(self) -> int:
        return self.items.shape[1]


@dataclass(frozen=True)
class QuerySet:
    """Query vectors sharing the dimensionality of the dataset they target."""

    queries: np.ndarray

    def __post_init__(self):
        _freeze_field(self, "queries", ndim=2)

    @property
    def count(self) -> int:
        return self.queries.shape[0]

    @property
    def dim(self) -> int:
        return self.queries.shape[1]


@dataclass(frozen=True)
class SubVectorLayout:
    """How a ``D``-dimensional vector splits into equal sub-vectors.

    ``m_dir`` is the number of sub-spaces; it must divide ``D`` exactly
    and each sub-vector covers ``D_star = D // m_dir`` consecutive
    dimensions. Direction codebook ``j`` quantizes sub-space
    ``j % m_dir`` of the residual that earlier codebooks on that
    sub-space leave: product quantization has one codebook per sub-space,
    residual quantization stacks its stages on ``m_dir = 1``.
    """

    D: int
    m_dir: int

    def __post_init__(self):
        if self.D < 1 or self.m_dir < 1:
            raise InvalidInputError("D and m_dir must be positive")
        if self.D % self.m_dir != 0:
            raise InvalidInputError(
                f"m_dir={self.m_dir} does not divide D={self.D}; "
                "pad the data first (see pad_to_multiple)"
            )

    @property
    def D_star(self) -> int:
        return self.D // self.m_dir

    def slices(self) -> list[slice]:
        d = self.D_star
        return [slice(j * d, (j + 1) * d) for j in range(self.m_dir)]


@dataclass(frozen=True)
class Codebook:
    """``k_star`` codewords of length ``D_star`` for one sub-quantizer."""

    codewords: np.ndarray

    def __post_init__(self):
        _freeze_field(self, "codewords", ndim=2, nonempty=1, capped=True)

    @property
    def k_star(self) -> int:
        return self.codewords.shape[0]

    @property
    def dim(self) -> int:
        return self.codewords.shape[1]


@dataclass(frozen=True)
class NormCodebook:
    """Scalar codewords for norm quantization, sorted ascending.

    The first training stage quantizes raw relative norms and is
    non-negative; later stages quantize signed residuals, so negative
    codewords are accepted only when ``signed=True``.
    """

    values: np.ndarray
    signed: bool = False

    def __post_init__(self):
        _freeze_field(self, "values", ndim=1, nonempty=1, capped=True)
        if np.any(np.diff(self.values) < 0):
            raise InvalidInputError("values must be sorted ascending")
        if not self.signed and self.values[0] < 0:
            raise InvalidInputError("unsigned norm codewords must be >= 0")

    @property
    def k_star(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class CodeMatrix:
    """``n x m`` integer codes; column ``j`` indexes codebook ``j``.

    ``codes`` is a read-only copy stored column-major, as in the index
    file, so every column is contiguous for the scan's gathers.

    Bounds are checked at construction so downstream decode never sees an
    out-of-range code.
    """

    codes: np.ndarray
    k_stars: tuple[int, ...] = field(default=())

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.ndim != 2:
            raise InvalidInputError(f"codes must be 2-D, got shape {codes.shape}")
        if not np.issubdtype(codes.dtype, np.integer):
            raise InvalidInputError("codes must be integers")
        k_stars = tuple(int(k) for k in self.k_stars)
        if len(k_stars) != codes.shape[1]:
            raise InvalidInputError(
                f"expected {codes.shape[1]} per-column bounds, got {len(k_stars)}"
            )
        if codes.size:
            if codes.min() < 0:
                raise InvalidInputError("codes must be non-negative")
            for j, (top, k) in enumerate(zip(codes.max(axis=0), k_stars)):
                if top >= k:
                    raise InvalidInputError(f"column {j} holds code {top} >= k_star={k}")
        width = code_dtype(max(k_stars, default=1))
        frozen = np.array(codes, dtype=width, order="F")
        frozen.flags.writeable = False
        object.__setattr__(self, "codes", frozen)
        object.__setattr__(self, "k_stars", k_stars)

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def m(self) -> int:
        return self.codes.shape[1]


def code_dtype(k_star: int) -> type:
    """Storage width for codes: u8 up to 256 codewords, u16 beyond."""
    return np.uint8 if k_star <= 256 else np.uint16


def l2_norm(x: np.ndarray) -> float:
    """Euclidean norm of a vector; zero only for the zero vector."""
    x = np.asarray(x, dtype=np.float64)
    _require_finite(x, "x")
    return float(np.linalg.norm(x))


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a matrix."""
    return np.linalg.norm(np.asarray(matrix, dtype=np.float64), axis=1)


def direction_vector(x: np.ndarray) -> np.ndarray:
    """Unit vector ``x / ||x||``.

    Raises:
        ZeroNormError: for the zero vector, whose direction is undefined.
            Callers substitute their own policy (training skips such rows).
    """
    x = np.asarray(x, dtype=np.float64)
    norm = l2_norm(x)
    if norm == 0.0:
        raise ZeroNormError("cannot take the direction of a zero vector")
    return x / norm


def split_subvectors(x: np.ndarray, layout: SubVectorLayout) -> list[np.ndarray]:
    """Split ``x`` into ``m_dir`` consecutive sub-vectors of length ``D_star``.

    Concatenating the output in order reproduces ``x`` exactly.
    """
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] != layout.D:
        raise InvalidInputError(
            f"expected a vector of length {layout.D}, got shape {x.shape}"
        )
    return [x[s] for s in layout.slices()]


def pad_to_multiple(matrix: np.ndarray, m_dir: int) -> np.ndarray:
    """Zero-pad columns so the width becomes divisible by ``m_dir``.

    Padding with zero columns changes neither inner products nor norms,
    so MIPS results over padded items and queries are identical to the
    unpadded problem. Items and queries must be padded consistently.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise InvalidInputError("expected a 2-D matrix")
    if m_dir < 1:
        raise InvalidInputError("m_dir must be positive")
    short = (-matrix.shape[1]) % m_dir
    if short == 0:
        return matrix
    return np.hstack([matrix, np.zeros((matrix.shape[0], short))])
