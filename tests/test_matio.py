"""Matrix and vector file formats."""

import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shiftadd as sa
from shiftadd import matio


class TestMatrixFiles:
    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(600)
        mat = rng.standard_normal((5, 7))
        path = tmp_path / "m.csv"
        matio.save_matrix_csv(path, mat)
        assert np.array_equal(matio.load_matrix_csv(path), mat)
        assert np.array_equal(matio.load_matrix(path), mat)

    def test_bin_round_trip(self, tmp_path):
        rng = np.random.default_rng(601)
        mat = rng.standard_normal((3, 11))
        path = tmp_path / "m.p2m"
        matio.save_matrix_bin(path, mat)
        assert np.array_equal(matio.load_matrix_bin(path), mat)
        assert np.array_equal(matio.load_matrix(path), mat)

    def test_bad_magic_and_truncation(self, tmp_path):
        path = tmp_path / "bad.p2m"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 8)
        with pytest.raises(sa.MatrixFormatError):
            matio.load_matrix_bin(path)
        good = tmp_path / "good.p2m"
        matio.save_matrix_bin(good, np.ones((2, 2)))
        data = good.read_bytes()
        trunc = tmp_path / "trunc.p2m"
        trunc.write_bytes(data[:-9])
        with pytest.raises(sa.MatrixFormatError):
            matio.load_matrix_bin(trunc)

    def test_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\nnot-a-number,3.0\n")
        with pytest.raises(sa.MatrixFormatError):
            matio.load_matrix_csv(path)

    def test_single_row_keeps_matrix_shape(self, tmp_path):
        path = tmp_path / "row.csv"
        matio.save_matrix_csv(path, np.array([[1.0, 2.0, 3.0]]))
        assert matio.load_matrix(path).shape == (1, 3)


class TestVectorFiles:
    def test_decimal_entries(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("0.375\n-2\n0.5\n")
        vec = matio.load_vector(path)
        assert vec == [sa.Dyadic(3, -3), sa.Dyadic(-2), sa.Dyadic(1, -1)]

    def test_mantissa_exponent_entries(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("# comment\n3,-3\n-5,2\n")
        assert matio.load_vector(path) == [sa.Dyadic(3, -3), sa.Dyadic(-5, 2)]

    def test_exponent_bounded_to_float64_range(self, tmp_path):
        path = tmp_path / "x.csv"
        # exponents count after the mantissa is made odd: 2,-1075 is 2**-1074
        path.write_text("1,-1074\n1,1023\n2,-1075\n0,-5000\n")
        assert matio.load_vector(path) == [sa.Dyadic(1, -1074),
                                           sa.Dyadic(1, 1023),
                                           sa.Dyadic(1, -1074), sa.Dyadic(0)]
        for entry in ("1,-1075", "3,1024", "1,-2000000", "2,1023"):
            path.write_text(entry + "\n")
            with pytest.raises(sa.MatrixFormatError, match="exponent"):
                matio.load_vector(path)

    def test_inexact_decimal_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("0.1\n")
        with pytest.raises(sa.MatrixFormatError):
            matio.load_vector(path)

    def test_save_round_trip(self, tmp_path):
        path = tmp_path / "y.csv"
        vals = [sa.Dyadic(7, -4), sa.Dyadic(-1, 10), sa.Dyadic(0)]
        matio.save_vector(path, vals)
        assert matio.load_vector(path)[:2] == vals[:2]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("\n")
        with pytest.raises(sa.MatrixFormatError):
            matio.load_vector(path)

    def test_binary_vector(self, tmp_path):
        path = tmp_path / "x.p2m"
        matio.save_matrix_bin(path, np.array([[0.375, -2.0, 0.5]]))
        assert matio.load_vector(path) == \
            [sa.Dyadic(3, -3), sa.Dyadic(-2), sa.Dyadic(1, -1)]
        bad = tmp_path / "m.p2m"
        matio.save_matrix_bin(bad, np.ones((2, 2)))
        with pytest.raises(sa.MatrixFormatError):
            matio.load_vector(bad)


def _bin_bytes(mat):
    buf = io.BytesIO()
    mat = np.ascontiguousarray(mat, dtype="<f8")
    buf.write(matio._HEADER.pack(matio.MATRIX_MAGIC, *mat.shape))
    buf.write(mat.tobytes())
    return buf.getvalue()


_VECTOR_FILES = [b"0.375\n-2\n0.5\n", b"# mantissa,exponent,decimal\n"
                 b"3,-3,0.375\n-5,2,-20.0\n0,0,0.0\n",
                 _bin_bytes(np.array([[0.375, -2.0, 0.5]]))]
_MATRIX_FILES = [b"1.0,2.0,3.0\n-0.5,0.25,1e-3\n",
                 _bin_bytes(np.array([[1.0, -2.0], [0.5, 3.0]]))]
# bytes that make a file plausible-but-wrong rather than plain noise
_SPLICES = st.one_of(
    st.sampled_from([b",", b"\n", b"-", b"e", b"e9999", b"e-99999", b"x",
                     b"nan", b"inf", b"0.1", b"#", b" ", b"1,2,3", b"\xff",
                     b"\x00", b"9" * 40, b"SApw2mat", b"\xff\xff\xff\x7f"]),
    st.binary(max_size=6))


def _mutated(data, files):
    blob = bytearray(data.draw(st.sampled_from(files)))
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(["insert", "delete", "replace",
                                        "truncate", "duplicate"]))
        i = data.draw(st.integers(0, len(blob)))
        j = data.draw(st.integers(i, min(len(blob), i + 8)))
        if op == "insert":
            blob[i:i] = data.draw(_SPLICES)
        elif op == "delete":
            del blob[i:j]
        elif op == "replace":
            blob[i:j] = data.draw(_SPLICES)
        elif op == "truncate":
            del blob[i:]
        else:
            blob[i:i] = blob[i:j]
    return bytes(blob)


@pytest.mark.parametrize("load, files", [
    (matio.load_vector, _VECTOR_FILES), (matio.load_matrix, _MATRIX_FILES)],
    ids=["vector", "matrix"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_file_loads_or_is_a_format_error(load, files, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f"
        path.write_bytes(_mutated(data, files))
        try:
            load(path)
        except sa.MatrixFormatError:
            pass
