import os
import stat
import struct
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import fneq.persist

from dataclasses import replace

from fneq.clustering import ClusteringParams
from fneq.core import Codebook, CodeMatrix, Dataset, NormCodebook, SubVectorLayout
from fneq.errors import CorruptionError, InvalidInputError
from fneq.evaluate import write_curve_csv, write_metrics_csv
from fneq.neq import IndexArtifact, IndexMetadata, scan_scores, select_top_k, train_index
from fneq.persist import MAGIC, load_index, save_index
from fneq.tuner import write_grid_csv

from conftest import make_mips_data

#: The fields ``write_metrics_csv`` reads from a report.
METRICS_ROW = SimpleNamespace(method="pq", dataset_label="toy", items=10, recall_mean=0.5,
                              precision_mean=0.5, f1_mean=0.5, time_mean=0.1, recall_std=0.0)


def replace_ns(ns: SimpleNamespace, **changes) -> SimpleNamespace:
    return SimpleNamespace(**{**vars(ns), **changes})


def trained(mode, m, m_prime, seed, n=80, dim=12, k_star=8):
    data = Dataset(make_mips_data(n, dim, seed=seed))
    return train_index(data, mode, m, m_prime, k_star, ClusteringParams(seed=seed))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "mode,m,m_prime",
        [("pq", 3, 0), ("rq", 2, 0), ("neq_kmeans", 4, 1), ("fuzzy2_neq", 3, 1)],
    )
    def test_artifact_survives_roundtrip(self, tmp_path, mode, m, m_prime):
        index = trained(mode, m, m_prime, seed=3)
        path = tmp_path / "index.fneq"
        save_index(path, index)
        loaded = load_index(path)
        assert loaded.mode == index.mode
        assert loaded.metadata == index.metadata
        np.testing.assert_array_equal(loaded.codes.codes, index.codes.codes)
        for a, b in zip(loaded.dir_codebooks, index.dir_codebooks):
            np.testing.assert_array_equal(a.codewords, b.codewords)
        for a, b in zip(loaded.norm_codebooks, index.norm_codebooks):
            np.testing.assert_array_equal(a.values, b.values)
            assert a.signed == b.signed

    def test_rankings_bit_identical_across_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        for seed, (mode, m, mp) in enumerate(
            [("pq", 2, 0), ("neq_kmeans", 3, 1), ("fuzzy2_neq", 3, 1), ("rq", 2, 0), ("neq_kmeans", 5, 2)]
        ):
            index = trained(mode, m, mp, seed=seed + 20)
            path = tmp_path / f"{seed}.fneq"
            save_index(path, index)
            loaded = load_index(path)
            for _ in range(5):
                q = rng.normal(size=12)
                s_orig, s_load = scan_scores(q, index), scan_scores(q, loaded)
                np.testing.assert_array_equal(s_orig, s_load)
                np.testing.assert_array_equal(
                    select_top_k(s_orig, 10), select_top_k(s_load, 10)
                )

    def test_file_size_matches_layout(self, tmp_path):
        index = trained("neq_kmeans", 3, 1, seed=5, n=50, dim=8, k_star=8)
        path = tmp_path / "index.fneq"
        save_index(path, index)
        d_star = 8 // 2
        expected = 51 + 8 * 4 + 2 * (8 * d_star * 4) + 3 * 50 * 1
        assert path.stat().st_size == expected

    def test_u16_codes_roundtrip(self, tmp_path):
        index = trained("pq", 2, 0, seed=6, n=400, dim=8, k_star=300)
        path = tmp_path / "wide.fneq"
        save_index(path, index)
        loaded = load_index(path)
        np.testing.assert_array_equal(loaded.codes.codes, index.codes.codes)


class TestAtomicSave:
    def test_failed_write_keeps_existing_file_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "index.fneq"
        save_index(path, trained("neq_kmeans", 3, 1, seed=9))
        before = path.read_bytes()

        class FailingFile:
            """Writes the first chunk, then fails as a full disk would."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def writelines(self, chunks):
                self.fh.write(next(iter(chunks)))
                self.fh.flush()
                raise OSError("no space left on device")

        monkeypatch.setattr(
            fneq.persist, "open", lambda p, mode: FailingFile(open(p, mode)), raising=False
        )
        with pytest.raises(OSError, match="no space"):
            save_index(path, trained("pq", 3, 0, seed=10))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.fneq"]

    @pytest.mark.parametrize("write,good,bad", [
        (write_grid_csv, [(5.0, 6.0, 7.0)], [(2.0, 3.0, 1.5), (3.0, 3.0, "nan?")]),
        (write_curve_csv, [(40, 0.25)], [(10, 0.5), (20, "nan?")]),
        (write_metrics_csv, [replace_ns(METRICS_ROW, method="rq")],
         [METRICS_ROW, replace_ns(METRICS_ROW, f1_mean="?")]),
    ], ids=["grid", "curve", "metrics"])
    def test_failed_csv_write_keeps_existing_file_and_no_temporary(self, tmp_path, write, good,
                                                                   bad):
        path = tmp_path / "out.csv"
        write(path, good)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write(path, bad)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    @pytest.mark.parametrize("write,rows,expected", [
        (write_grid_csv, [(2.0, 3.5, 1 / 3), (3.5, 3.5, 1e-12)],
         b"xi1,xi2,cost\r\n2.000000,3.500000,0.3333333333\r\n3.500000,3.500000,1e-12\r\n"),
        (write_metrics_csv,
         [METRICS_ROW, replace_ns(METRICS_ROW, method="rq", dataset_label='toy, "q"',
                                  recall_mean=1 / 3, time_mean=12.3456789)],
         b"method,dataset,items,recall,precision,f1,time_s,std\r\n"
         b"pq,toy,10,0.500000,0.500000,0.500000,0.100000,0.000000\r\n"
         b'rq,"toy, ""q""",10,0.333333,0.500000,0.500000,12.345679,0.000000\r\n'),
    ], ids=["grid", "metrics"])
    def test_csv_golden_bytes(self, tmp_path, write, rows, expected):
        write(tmp_path / "out.csv", rows)
        assert (tmp_path / "out.csv").read_bytes() == expected

    def test_write_through_a_symlink_replaces_its_target_and_keeps_the_link(self, tmp_path):
        (tmp_path / "real.csv").write_text("old\n")
        (tmp_path / "out.csv").symlink_to("real.csv")
        write_curve_csv(tmp_path / "out.csv", [(10, 0.5)])
        assert (tmp_path / "out.csv").is_symlink()
        assert (tmp_path / "real.csv").read_bytes() == b"items,recall\r\n10,0.500000\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "real.csv"]

    def test_grid_to_the_null_device_leaves_it_a_character_device(self):
        write_grid_csv(os.devnull, [(2.0, 3.0, 1.5)])
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_grid_to_a_fifo_is_written_in_place(self, tmp_path):
        write_grid_csv(tmp_path / "regular.csv", [(2.0, 3.0, 1.5), (3.0, 3.0, 0.5)])
        os.mkfifo(tmp_path / "fifo")
        received = []
        reader = threading.Thread(target=lambda: received.append((tmp_path / "fifo").read_bytes()),
                                  daemon=True)
        reader.start()
        write_grid_csv(tmp_path / "fifo", [(2.0, 3.0, 1.5), (3.0, 3.0, 0.5)])
        reader.join(timeout=10)
        assert received == [(tmp_path / "regular.csv").read_bytes()]
        assert stat.S_ISFIFO(os.stat(tmp_path / "fifo").st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "regular.csv"]

    @pytest.mark.parametrize("part", ["norm", "dir"])
    def test_codebook_off_k_star_is_rejected_before_writing(self, tmp_path, part):
        index = trained("neq_kmeans", 3, 1, seed=14)
        norm_cbs, dir_cbs = index.norm_codebooks, index.dir_codebooks
        if part == "norm":
            norm_cbs = (NormCodebook(norm_cbs[0].values[:-1]),)
        else:
            dir_cbs = (dir_cbs[0], Codebook(dir_cbs[1].codewords[:-1]))
        # The code bounds match the codebooks, so the artifact is valid.
        sizes = [cb.k_star for cb in (*norm_cbs, *dir_cbs)]
        codes = CodeMatrix(np.minimum(index.codes.codes, 6), k_stars=sizes)
        index = replace(index, norm_codebooks=norm_cbs, dir_codebooks=dir_cbs, codes=codes)
        with pytest.raises(InvalidInputError, match="k_star=8"):
            save_index(tmp_path / "index.fneq", index)
        assert list(tmp_path.iterdir()) == []

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "index.fneq"
        save_index(path, trained("pq", 3, 0, seed=11, n=300))
        save_index(path, trained("neq_kmeans", 3, 1, seed=12, n=40, dim=8))
        assert load_index(path).n == 40
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.fneq"]

    def test_codes_written_column_major(self, tmp_path):
        index = trained("neq_kmeans", 3, 1, seed=13, n=50, dim=8)
        path = tmp_path / "index.fneq"
        save_index(path, index)
        tail = path.read_bytes()[-3 * 50:]
        assert tail == index.codes.codes.tobytes(order="F")


class TestCorruption:
    def make_file(self, tmp_path):
        index = trained("neq_kmeans", 3, 1, seed=8, n=40, dim=8)
        path = tmp_path / "index.fneq"
        save_index(path, index)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.make_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"WAT!"
        path.write_bytes(raw)
        with pytest.raises(CorruptionError, match="magic"):
            load_index(path)

    def test_bad_version(self, tmp_path):
        path = self.make_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (9).to_bytes(2, "little")
        path.write_bytes(raw)
        with pytest.raises(CorruptionError, match="version"):
            load_index(path)

    def test_truncated_payload(self, tmp_path):
        path = self.make_file(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(CorruptionError, match="truncated"):
            load_index(path)

    def test_trailing_garbage(self, tmp_path):
        path = self.make_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(CorruptionError, match="trailing"):
            load_index(path)

    def test_nonzero_reserved(self, tmp_path):
        path = self.make_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[40] = 1
        path.write_bytes(raw)
        with pytest.raises(CorruptionError, match="reserved"):
            load_index(path)

    def test_out_of_range_code(self, tmp_path):
        path = self.make_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-1] = 255  # codes are the final section; k_star is 8
        path.write_bytes(raw)
        with pytest.raises(CorruptionError, match="validation"):
            load_index(path)

    @pytest.mark.parametrize("D", [0, 7])
    def test_header_dimension_without_layout(self, tmp_path, D):
        path = self.make_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[7:11] = D.to_bytes(4, "little")  # two direction codebooks
        path.write_bytes(raw)
        with pytest.raises(CorruptionError):
            load_index(path)

    # Mode codes 0=pq, 1=rq, 2=neq_kmeans: norm codebooks outside NEQ,
    # none in NEQ, no direction codebook, m_prime above m.
    @pytest.mark.parametrize("mode,m_prime", [(2, 0), (2, 3), (2, 4), (0, 1), (1, 1), (1, 3)])
    def test_header_codebook_split_against_the_mode(self, tmp_path, mode, m_prime):
        path = self.make_file(tmp_path)  # neq_kmeans, m=3, m_prime=1
        raw = bytearray(path.read_bytes())
        raw[6] = mode
        raw[19:23] = m_prime.to_bytes(4, "little")
        path.write_bytes(raw)
        with pytest.raises(CorruptionError):
            load_index(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "short.fneq"
        path.write_bytes(MAGIC)
        with pytest.raises(CorruptionError, match="shorter"):
            load_index(path)


# Hand-built indexes: (mode, D, seed, norm values per stage, direction
# codewords per codebook, codes per item). Every value is exact in float32.
GOLDEN = {
    "pq": ("pq", 4, 7, [], [[[0.5, -1.0], [2.0, 0.25]], [[1.5, 3.0], [-0.75, -0.0]]],
           [[0, 1], [1, 0], [1, 1]]),
    "rq": ("rq", 3, 2**64 - 1, [], [[[1.0, 2.0, 3.0], [-1.0, 0.5, 0.0]],
                                    [[0.125, 0.0, -0.25], [0.0, 0.0, 1.0]]],
           [[1, 0], [0, 1], [0, 0]]),
    "neq_kmeans": ("neq_kmeans", 4, 0, [[0.0, 1.5]],
                   [[[0.5, 0.5], [1.0, 0.0]], [[0.0, -1.0], [0.25, 0.75]]],
                   [[0, 1, 0], [1, 0, 1], [1, 1, 1], [0, 0, 1]]),
    "fuzzy2_neq": ("fuzzy2_neq", 2, 3, [[0.5, 2.0], [-0.25, 0.125]], [[[1.0, 0.0], [0.0, 1.0]]],
                   [[1, 0, 1], [0, 1, 0]]),
    "pq-u16": ("pq", 2, 1, [], [[[i / 4] for i in range(300)], [[-i / 8] for i in range(300)]],
               [[299, 0], [256, 17], [3, 298]]),
}
MODE_CODES = {"pq": 0, "rq": 1, "neq_kmeans": 2, "fuzzy2_neq": 3}


def golden_bytes(mode, D, seed, norms, dirs, codes):
    """The v1 file spelled out from the documented layout."""
    k_star, n, m = len(dirs[0]), len(codes), len(codes[0])
    header = struct.pack("<4sHBIIIIIQ16s", b"FNEQ", 1, MODE_CODES[mode], D, n, m, len(norms),
                         k_star, seed, bytes(16))
    floats = [v for values in norms for v in values]
    floats += [x for codewords in dirs for row in codewords for x in row]
    column_major = [codes[i][j] for j in range(m) for i in range(n)]
    width = "B" if k_star <= 256 else "H"
    return (header + struct.pack(f"<{len(floats)}f", *floats)
            + struct.pack(f"<{len(column_major)}{width}", *column_major))


def golden_artifact(mode, D, seed, norms, dirs, codes):
    k_star, m = len(dirs[0]), len(codes[0])
    return IndexArtifact(
        mode=mode,
        layout=SubVectorLayout(D=D, m_dir=1 if mode == "rq" else len(dirs)),
        norm_codebooks=tuple(NormCodebook(np.array(v), signed=s > 0) for s, v in enumerate(norms)),
        dir_codebooks=tuple(Codebook(np.array(cw)) for cw in dirs),
        codes=CodeMatrix(np.array(codes), k_stars=(k_star,) * m),
        metadata=IndexMetadata(D=D, n=len(codes), m=m, m_prime=len(norms), k_star=k_star, seed=seed),
    )


def assert_same_payload(a, b):
    assert (a.mode, a.layout, a.metadata) == (b.mode, b.layout, b.metadata)
    assert a.codes.codes.dtype == b.codes.codes.dtype
    assert a.codes.codes.tobytes() == b.codes.codes.tobytes()
    assert [(cb.values.tobytes(), cb.signed) for cb in a.norm_codebooks] == [
        (cb.values.tobytes(), cb.signed) for cb in b.norm_codebooks
    ]
    assert [cb.codewords.tobytes() for cb in a.dir_codebooks] == [
        cb.codewords.tobytes() for cb in b.dir_codebooks
    ]


class TestGoldenBytes:
    """Pins the v1 bytes without the writer: a layout bug made the same
    way in ``save_index`` and ``load_index`` survives a round trip."""

    @pytest.mark.parametrize("case", GOLDEN.values(), ids=GOLDEN.keys())
    def test_save_writes_and_load_reads_the_documented_bytes(self, tmp_path, case):
        index = golden_artifact(*case)
        saved = tmp_path / "saved.fneq"
        save_index(saved, index)
        assert saved.read_bytes() == golden_bytes(*case)

        spelled = tmp_path / "spelled.fneq"
        spelled.write_bytes(golden_bytes(*case))
        assert_same_payload(load_index(spelled), index)


# Byte offsets of the u32 header fields.
FIELDS = {"D": 7, "n": 11, "m": 15, "m_prime": 19, "k_star": 23}
U32 = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 16), st.just(2**32 - 1))
edits = st.one_of(
    st.tuples(st.just("truncate"), st.integers(min_value=0)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=64)),
    st.tuples(st.just("fields"), st.dictionaries(st.sampled_from(sorted(FIELDS)), U32, min_size=1)),
)


def with_fields(raw, fields):
    raw = bytearray(raw)
    for name, value in fields.items():
        raw[FIELDS[name] : FIELDS[name] + 4] = value.to_bytes(4, "little")
    return raw


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(sorted(GOLDEN)), edit=edits)
@example(case="pq", edit=("fields", {"n": 2**32 - 1, "m": 2**32 - 1}))
@example(case="rq", edit=("fields", {"D": 1, "n": 19, "m_prime": 3}))
@example(case="neq_kmeans", edit=("fields", {"n": 2**32 - 1, "m": 2**32 - 1, "k_star": 0}))
@example(case="fuzzy2_neq", edit=("fields", {"m_prime": 2**32 - 1}))
def test_edited_file_is_corrupt_or_resaves_to_its_bytes(case, edit):
    raw = bytearray(golden_bytes(*GOLDEN[case]))
    kind, arg = edit
    if kind == "truncate":
        raw = raw[: arg % len(raw)]
    elif kind == "append":
        raw += arg
    else:
        raw = with_fields(raw, arg)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.fneq"
        path.write_bytes(raw)
        try:
            loaded = load_index(path)
        except CorruptionError:
            event(f"{kind}: corrupt")
            return
        event(f"{kind}: loaded")
        save_index(path, loaded)
        assert path.read_bytes() == raw


@pytest.mark.parametrize("k_star", [0, 2])
def test_header_implying_more_than_int64_bytes_reads_as_truncated(tmp_path, k_star):
    # rq: one (k_star x D) codebook per stage and an (m x n) code block,
    # whose size in int64 would wrap negative and read as trailing bytes.
    fields = {"n": 2**32 - 1, "m": 2**32 - 1, "k_star": k_star}
    path = tmp_path / "index.fneq"
    path.write_bytes(with_fields(golden_bytes(*GOLDEN["rq"]), fields))
    with pytest.raises(CorruptionError, match="truncated"):
        load_index(path)
