"""Matrix and vector file formats."""

import numpy as np
import pytest

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
