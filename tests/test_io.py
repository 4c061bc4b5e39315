import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import fneq.persist
from fneq.errors import InvalidInputError
from fneq.io import load_csv, load_fvecs, load_matrix, save_csv, save_fvecs


class TestFvecs:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(17, 9)).astype(np.float32).astype(np.float64)
        path = tmp_path / "data.fvecs"
        save_fvecs(path, matrix)
        np.testing.assert_array_equal(load_fvecs(path), matrix)

    def test_layout_is_little_endian_dim_prefixed(self, tmp_path):
        path = tmp_path / "one.fvecs"
        save_fvecs(path, np.array([[1.5, -2.0]]))
        raw = path.read_bytes()
        assert raw[:4] == (2).to_bytes(4, "little")
        assert np.frombuffer(raw[4:], dtype="<f4").tolist() == [1.5, -2.0]

    def test_rejects_ragged_file(self, tmp_path):
        path = tmp_path / "bad.fvecs"
        good = (2).to_bytes(4, "little") + np.zeros(2, dtype="<f4").tobytes()
        path.write_bytes(good + good[:7])
        with pytest.raises(InvalidInputError):
            load_fvecs(path)

    def test_rejects_mixed_dims(self, tmp_path):
        path = tmp_path / "mixed.fvecs"
        rec2 = (2).to_bytes(4, "little") + np.zeros(2, dtype="<f4").tobytes()
        # Same record size as a dim-2 record but claiming dim 3 mid-file.
        rec_bad = (3).to_bytes(4, "little") + np.zeros(2, dtype="<f4").tobytes()
        path.write_bytes(rec2 + rec_bad)
        with pytest.raises(InvalidInputError):
            load_fvecs(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.fvecs"
        path.write_bytes(b"")
        with pytest.raises(InvalidInputError):
            load_fvecs(path)

    def test_signalling_nan_is_invalid_without_a_warning(self, tmp_path):
        path = tmp_path / "snan.fvecs"
        path.write_bytes((2).to_bytes(4, "little") + b"\x00\x00\x80\x3f" + b"\x01\x00\x80\x7f")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="non-finite values"):
                load_fvecs(path)

    def test_save_rejects_a_vector(self, tmp_path):
        with pytest.raises(InvalidInputError, match="^expected a 2-D matrix with at least one column$"):
            save_fvecs(tmp_path / "v.fvecs", np.ones(3))
        assert not (tmp_path / "v.fvecs").exists()


class TestCsv:
    def test_roundtrip(self, tmp_path):
        matrix = np.array([[1.0, 2.5], [-3.0, 4.25]])
        path = tmp_path / "data.csv"
        save_csv(path, matrix)
        np.testing.assert_array_equal(load_csv(path), matrix)

    def test_empty_file_gives_empty_matrix(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert load_csv(path).shape == (0, 0)

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(InvalidInputError):
            load_csv(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        (tmp_path / "plain.csv").write_bytes(b"1,2\n3,4\n")
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf1,2\n3,4\n")
        plain = load_csv(tmp_path / "plain.csv")
        np.testing.assert_array_equal(load_csv(tmp_path / "bom.csv"), plain)
        assert plain.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_blank_lines_are_skipped(self, tmp_path):
        (tmp_path / "blank.csv").write_text("\n1,2\n  \n\n3,4\n\n")
        assert load_csv(tmp_path / "blank.csv").tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "text.csv"
        path.write_text("1,apple\n")
        with pytest.raises(InvalidInputError):
            load_csv(path)


#: A fixed matrix and, per format, its saver and the bytes it writes.
GOLDEN_MATRIX = np.array([[1.0, -2.5, 1 / 3], [1e-300, 6.02e23, 0.1]])
GOLDEN = {
    "csv": (save_csv, b"1,-2.5,0.33333333333333331\n1e-300,6.02e+23,0.10000000000000001\n"),
    "fvecs": (save_fvecs, struct.pack("<i3f", 3, 1.0, -2.5, 1 / 3)
              + struct.pack("<i3f", 3, 1e-300, 6.02e23, 0.1)),
}


class TestAtomicSave:
    @pytest.mark.parametrize("fmt", GOLDEN)
    def test_golden_bytes(self, tmp_path, fmt):
        save, expected = GOLDEN[fmt]
        save(tmp_path / f"m.{fmt}", GOLDEN_MATRIX)
        assert (tmp_path / f"m.{fmt}").read_bytes() == expected

    @pytest.mark.parametrize("fmt", GOLDEN)
    def test_failed_write_keeps_existing_file_and_no_temporary(self, tmp_path, monkeypatch, fmt):
        save = GOLDEN[fmt][0]
        path = tmp_path / f"m.{fmt}"
        save(path, GOLDEN_MATRIX)

        class FailingFile:
            """Takes the first 10 bytes or characters, then fails as a full disk would."""

            def __init__(self, fh):
                self.fh = fh
                self.room = 10

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if not isinstance(data, str):
                    data = memoryview(data).cast("B")
                self.fh.write(data[: self.room])
                self.fh.flush()
                if len(data) > self.room:
                    raise OSError("no space left on device")
                self.room -= len(data)

        monkeypatch.setattr(fneq.persist, "open",
                            lambda p, mode, **kw: FailingFile(open(p, mode, **kw)), raising=False)
        with pytest.raises(OSError, match="no space"):
            save(path, 2 * GOLDEN_MATRIX)
        assert path.read_bytes() == GOLDEN[fmt][1]
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]


def test_load_matrix_dispatch(tmp_path):
    path = tmp_path / "m.csv"
    save_csv(path, np.ones((2, 2)))
    assert load_matrix(path, "csv").shape == (2, 2)
    with pytest.raises(InvalidInputError):
        load_matrix(path, "parquet")


def valid_bytes(fmt: str) -> bytes:
    """A 6 x 3 matrix as written by the saver of ``fmt``."""
    matrix = np.random.default_rng(0).normal(size=(6, 3)).astype(np.float32)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"m.{fmt}"
        (save_fvecs if fmt == "fvecs" else save_csv)(path, matrix)
        return path.read_bytes()


byte_edits = st.one_of(
    st.tuples(st.just("truncate"), st.integers(min_value=0), st.just(b"")),
    st.tuples(st.just("overwrite"), st.integers(min_value=0), st.binary(min_size=1, max_size=4)),
    st.tuples(st.just("insert"), st.integers(min_value=0), st.binary(min_size=1, max_size=8)),
)


@settings(max_examples=300, deadline=None)
@given(fmt=st.sampled_from(["csv", "fvecs"]), edit=byte_edits)
@example(fmt="csv", edit=("overwrite", 3, b"\xff"))
@example(fmt="csv", edit=("insert", 0, b"\xc3"))
@example(fmt="fvecs", edit=("overwrite", 4, b"\x00\x00\xc0\x7f"))
@example(fmt="fvecs", edit=("overwrite", 4, b"\x01\x00\x80\x7f"))
def test_edited_file_loads_finite_or_is_invalid(fmt, edit):
    """Any truncation, overwrite or insertion of bytes in a valid file
    loads to a finite 2-D float64 matrix or raises ``InvalidInputError``."""
    raw = bytearray(valid_bytes(fmt))
    kind, at, data = edit
    at %= len(raw) + 1
    if kind == "truncate":
        raw = raw[:at]
    elif kind == "overwrite":
        raw[at : at + len(data)] = data
    else:
        raw[at:at] = data
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"edited.{fmt}"
        path.write_bytes(raw)
        try:
            matrix = load_matrix(path, fmt)
        except InvalidInputError:
            event(f"{fmt} {kind}: invalid")
            return
    event(f"{fmt} {kind}: loaded")
    assert matrix.ndim == 2 and matrix.dtype == np.float64
    assert np.all(np.isfinite(matrix))
