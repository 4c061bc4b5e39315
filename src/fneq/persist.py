"""Fixed little-endian index file format.

Header (51 bytes):

====== ======= =============================================
offset size    field
====== ======= =============================================
0      4       magic ``FNEQ``
4      2       version (u16, currently 1)
6      1       mode (u8): 0=pq, 1=rq, 2=neq_kmeans, 3=fuzzy2_neq
7      4x5     D, n, m, m_prime, k_star (u32 each)
27     8       seed (u64)
35     16      reserved, zero
====== ======= =============================================

Payload, in order: ``m_prime`` norm codebooks (k_star f32 each), then
the vector codebooks (k_star x D_star f32, row-major; D_star is D for
rq, otherwise D / (m - m_prime)), then the code matrix column-major
(u8 when k_star <= 256, else u16), the in-memory layout of ``CodeMatrix``.
The header fixes the payload size; the loader checks it once, up front.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from contextlib import contextmanager
from itertools import accumulate

import numpy as np

from .core import Codebook, CodeMatrix, NormCodebook, SubVectorLayout, code_dtype
from .errors import CorruptionError, InvalidInputError
from .neq import IndexArtifact, IndexMetadata, _mode_m_dir

MAGIC = b"FNEQ"
VERSION = 1
_HEADER = struct.Struct("<4sHBIIIIIQ16s")
_MODE_CODES = {"pq": 0, "rq": 1, "neq_kmeans": 2, "fuzzy2_neq": 3}
_MODE_NAMES = {v: k for k, v in _MODE_CODES.items()}


def save_index(path: str | os.PathLike, index: IndexArtifact) -> None:
    """Write the index with the documented byte-exact layout, through a
    temporary file beside ``path`` so a failed write leaves it untouched."""
    md = index.metadata
    if any(cb.k_star != md.k_star for cb in (*index.norm_codebooks, *index.dir_codebooks)):
        raise InvalidInputError(f"every codebook must hold k_star={md.k_star} codewords")
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        _MODE_CODES[index.mode],
        md.D,
        md.n,
        md.m,
        md.m_prime,
        md.k_star,
        md.seed,
        b"\x00" * 16,
    )
    norms = [cb.values for cb in index.norm_codebooks]
    dirs = [cb.codewords for cb in index.dir_codebooks]
    blocks = _blocks(index.layout, md.n, md.m, md.m_prime, md.k_star)
    chunks = [header]
    for a, (dtype, shape) in zip((norms, dirs, index.codes.codes.T), blocks):
        chunks.append(np.asarray(a, dtype=dtype).reshape(shape).tobytes())
    with _atomic_open(path, "xb") as fh:
        fh.writelines(chunks)


@contextmanager
def _atomic_open(path: str | os.PathLike, mode: str, **kwargs):
    """A new temporary file beside ``path`` that replaces it once the block completes;
    a target that exists and is not a regular file (a device, a pipe) is written in place."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode.replace("x", "w"), **kwargs) as fh:
            yield fh
        return
    path = os.path.realpath(path)  # through a symlink, replace its target and keep the link
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_csv(path: str | os.PathLike, header, rows) -> None:
    """``header`` and then ``rows`` as CSV, through ``_atomic_open``."""
    with _atomic_open(path, "x", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _blocks(layout: SubVectorLayout, n: int, m: int, m_prime: int, k_star: int) -> list[tuple]:
    """Dtype and shape of each payload block, in file order."""
    width = "<u1" if code_dtype(k_star) is np.uint8 else "<u2"
    dirs = (m - m_prime, k_star, layout.D_star)
    return [("<f4", (m_prime, k_star)), ("<f4", dirs), (width, (m, n))]


def load_index(path: str | os.PathLike) -> IndexArtifact:
    """Read an index file back; a rule ``IndexArtifact`` rejects is corruption."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise CorruptionError("index file shorter than the header")
    magic, version, mode_code, D, n, m, m_prime, k_star, seed, reserved = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise CorruptionError(f"bad magic {magic!r}; not an index file")
    if version != VERSION:
        raise CorruptionError(f"unsupported index version {version}")
    if mode_code not in _MODE_NAMES:
        raise CorruptionError(f"unknown mode code {mode_code}")
    mode = _MODE_NAMES[mode_code]
    if reserved != b"\x00" * 16:
        raise CorruptionError("reserved header bytes must be zero")

    try:
        layout = SubVectorLayout(D=D, m_dir=_mode_m_dir(mode, m, m_prime))
        blocks = _blocks(layout, n, m, m_prime, k_star)
        # Sizes in Python ints: n * m alone can exceed int64.
        sizes = [np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in blocks]
        extra = len(raw) - _HEADER.size - sum(sizes)
        if extra < 0:
            raise CorruptionError(f"index file truncated: the header implies {-extra} more bytes")
        if extra > 0:
            raise CorruptionError(f"{extra} trailing bytes after the payload")
        norms, dirs, codes = (
            np.frombuffer(raw, dtype, math.prod(shape), offset).reshape(shape)
            for (dtype, shape), offset in zip(blocks, accumulate(sizes, initial=_HEADER.size))
        )
        return IndexArtifact(
            mode=mode,
            layout=layout,
            norm_codebooks=tuple(NormCodebook(v, signed=True) for v in norms),
            dir_codebooks=tuple(Codebook(cw) for cw in dirs),
            codes=CodeMatrix(codes.T, k_stars=(k_star,) * m),
            metadata=IndexMetadata(D=D, n=n, m=m, m_prime=m_prime, k_star=k_star, seed=seed),
        )
    except InvalidInputError as exc:
        raise CorruptionError(f"index payload failed validation: {exc}") from exc
