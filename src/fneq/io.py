"""Dataset ingestion: fvecs binaries and plain CSV.

fvecs layout, per vector: a little-endian int32 dimension count followed
by that many little-endian float32 components. All vectors in a file must
share one dimension.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import InvalidInputError
from .persist import _atomic_open

_FVECS_DIM = np.dtype("<i4")
_FVECS_VAL = np.dtype("<f4")


def load_fvecs(path: str | os.PathLike) -> np.ndarray:
    """Read an fvecs file into an ``(n, D)`` float64 matrix."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0:
        raise InvalidInputError(f"{path}: empty fvecs file")
    if raw.size < 4:
        raise InvalidInputError(f"{path}: truncated fvecs header")
    dim = int(raw[:4].view(_FVECS_DIM)[0])
    if dim < 1:
        raise InvalidInputError(f"{path}: invalid vector dimension {dim}")
    record = 4 * (dim + 1)
    if raw.size % record != 0:
        raise InvalidInputError(
            f"{path}: size {raw.size} is not a multiple of the {record}-byte record"
        )
    n = raw.size // record
    table = raw.reshape(n, record)
    dims = table[:, :4].copy().view(_FVECS_DIM).ravel()
    if not np.all(dims == dim):
        raise InvalidInputError(f"{path}: vectors disagree on dimensionality")
    vecs = table[:, 4:].copy().view(_FVECS_VAL).reshape(n, dim)
    if not np.all(np.isfinite(vecs)):  # before the cast, which warns on a signalling NaN
        raise InvalidInputError(f"{path}: non-finite values")
    return vecs.astype(np.float64)


def save_fvecs(path: str | os.PathLike, matrix: np.ndarray) -> None:
    """Write an ``(n, D)`` matrix to fvecs (float32 on disk) through ``_atomic_open``."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] < 1:
        raise InvalidInputError("expected a 2-D matrix with at least one column")
    n, dim = matrix.shape
    record = np.empty((n, 1 + dim), dtype=_FVECS_VAL)
    record[:, :1] = np.full((n, 1), dim, dtype=_FVECS_DIM).view(_FVECS_VAL)
    record[:, 1:] = matrix.astype(_FVECS_VAL)
    with _atomic_open(path, "xb") as fh:
        fh.write(record)  # its raw C-order bytes, as ``record.tofile`` writes them


def load_csv(path: str | os.PathLike) -> np.ndarray:
    """Read a CSV with one numeric row per item, after any UTF-8 byte-order mark.

    An empty file yields an empty ``(0, 0)`` matrix (valid for query sets
    only); ragged rows are rejected, and so is a byte that is not UTF-8:
    it reads as a lone surrogate, which no number parses.
    """
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        return np.empty((0, 0))
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InvalidInputError(f"{path}: rows disagree on dimensionality")
    out = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        raise InvalidInputError(f"{path}: non-finite values")
    return out


def save_csv(path: str | os.PathLike, matrix: np.ndarray) -> None:
    """Write a matrix as bare CSV, one row per item, through ``_atomic_open``."""
    matrix = np.asarray(matrix, dtype=np.float64)
    with _atomic_open(path, "x", encoding="utf-8") as fh:
        np.savetxt(fh, matrix, delimiter=",", fmt="%.17g")


def load_matrix(path: str | os.PathLike, fmt: str) -> np.ndarray:
    """Dispatch on ``fmt`` in {"fvecs", "csv"}."""
    if fmt == "fvecs":
        return load_fvecs(path)
    if fmt == "csv":
        return load_csv(path)
    raise InvalidInputError(f"unknown format {fmt!r}; expected 'fvecs' or 'csv'")
