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
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .core import Codebook, CodeMatrix, NormCodebook, code_dtype
from .errors import CorruptionError, InvalidInputError
from .neq import IndexArtifact, IndexMetadata, _mode_layout

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
    chunks = [header]
    for cb in index.norm_codebooks:
        chunks.append(cb.values.astype("<f4").tobytes())
    for cb in index.dir_codebooks:
        chunks.append(np.ascontiguousarray(cb.codewords, dtype="<f4").tobytes())
    width = _code_dtype_le(md.k_star)
    chunks.append(np.ascontiguousarray(index.codes.codes.T, dtype=width).tobytes())
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _code_dtype_le(k_star: int) -> str:
    return "<u1" if code_dtype(k_star) is np.uint8 else "<u2"


def _take(buf: memoryview, offset: int, size: int, what: str) -> tuple[memoryview, int]:
    if offset + size > len(buf):
        raise CorruptionError(f"index file truncated while reading {what}")
    return buf[offset : offset + size], offset + size


def load_index(path: str | os.PathLike) -> IndexArtifact:
    """Read an index file back; a rule ``IndexArtifact`` rejects is corruption."""
    with open(path, "rb") as fh:
        raw = memoryview(fh.read())
    if len(raw) < _HEADER.size:
        raise CorruptionError("index file shorter than the header")
    magic, version, mode_code, D, n, m, m_prime, k_star, seed, reserved = _HEADER.unpack(
        raw[: _HEADER.size]
    )
    if magic != MAGIC:
        raise CorruptionError(f"bad magic {magic!r}; not an index file")
    if version != VERSION:
        raise CorruptionError(f"unsupported index version {version}")
    if mode_code not in _MODE_NAMES:
        raise CorruptionError(f"unknown mode code {mode_code}")
    mode = _MODE_NAMES[mode_code]
    if reserved != b"\x00" * 16:
        raise CorruptionError("reserved header bytes must be zero")

    n_dir = m - m_prime
    offset = _HEADER.size
    try:
        layout = _mode_layout(mode, D, n_dir)
        d_star = layout.D_star
        norm_codebooks = []
        for s in range(m_prime):
            chunk, offset = _take(raw, offset, 4 * k_star, f"norm codebook {s}")
            values = np.frombuffer(chunk, dtype="<f4").astype(np.float64)
            norm_codebooks.append(NormCodebook(values, signed=s > 0))

        dir_codebooks = []
        for j in range(n_dir):
            chunk, offset = _take(raw, offset, 4 * k_star * d_star, f"vector codebook {j}")
            cw = np.frombuffer(chunk, dtype="<f4").astype(np.float64).reshape(k_star, d_star)
            dir_codebooks.append(Codebook(cw))

        width = np.dtype(_code_dtype_le(k_star))
        chunk, offset = _take(raw, offset, width.itemsize * n * m, "the code matrix")
        if offset != len(raw):
            raise CorruptionError(f"{len(raw) - offset} trailing bytes after the payload")
        codes = CodeMatrix(np.frombuffer(chunk, dtype=width).reshape(m, n).T, k_stars=(k_star,) * m)

        metadata = IndexMetadata(D=D, n=n, m=m, m_prime=m_prime, k_star=k_star, seed=seed)
        return IndexArtifact(
            mode=mode,
            layout=layout,
            norm_codebooks=tuple(norm_codebooks),
            dir_codebooks=tuple(dir_codebooks),
            codes=codes,
            metadata=metadata,
        )
    except InvalidInputError as exc:
        raise CorruptionError(f"index payload failed validation: {exc}") from exc
