"""Scalar quantizers, signed-digit forms, and exact dyadic arithmetic."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import shiftadd as sa
from shiftadd.pot import pow2_round_array


class TestQuantizePow2:
    def test_examples(self):
        assert sa.quantize_pow2(0.875) == sa.SignedPow2(1, 0)
        assert sa.quantize_pow2(-0.3) == sa.SignedPow2(-1, -2)
        assert sa.quantize_pow2(0.0) == sa.SignedPow2(0)

    def test_midpoint_rounds_up(self):
        assert sa.quantize_pow2(1.5) == sa.SignedPow2(1, 1)
        assert sa.quantize_pow2(-0.75) == sa.SignedPow2(-1, 0)
        # just below the midpoint stays at the smaller exponent
        assert sa.quantize_pow2(np.nextafter(1.5, 0.0)) == sa.SignedPow2(1, 0)

    def test_clamp_flag(self):
        q = sa.quantize_pow2(math.ldexp(1.0, -200))
        assert q.exponent == -64 and q.clamped
        q = sa.quantize_pow2(-math.ldexp(1.0, 100))
        assert q.exponent == 63 and q.clamped
        assert not sa.quantize_pow2(0.5).clamped

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            sa.quantize_pow2(float("inf"))
        with pytest.raises(ValueError):
            sa.quantize_pow2(float("nan"))

    def test_relative_error_bound(self):
        rng = np.random.default_rng(100)
        x = rng.uniform(-4.0, 4.0, 20000)
        x = x[x != 0]
        v = pow2_round_array(x)
        assert np.all(np.abs(x - v) <= np.abs(x) / 3 + 1e-18)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(101)
        x = np.concatenate([rng.uniform(-8, 8, 500), [0.0, 1.5, -0.75]])
        v = pow2_round_array(x)
        for xi, vi in zip(x, v):
            assert sa.quantize_pow2(float(xi)).value == vi

    @pytest.mark.parametrize("bounds", [{}, {"e_min": None, "e_max": None}])
    @given(x=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=1, max_size=8)
           | st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                                       2.0 ** -1022, 1.5 * 2.0 ** -1070,
                                       1.5 * 2.0 ** 1023,
                                       np.nextafter(1.5, 0.0)]),
                      min_size=1, max_size=4))
    def test_vectorized_equals_scalar_on_all_finite(self, bounds, x):
        # subnormals, +-0 and the top binade included; an unclamped
        # exponent of 1024 is inf in both
        v = pow2_round_array(np.array(x), **bounds)
        for xi, vi in zip(x, v):
            q = sa.quantize_pow2(xi, **bounds)
            with np.errstate(over="ignore"):
                want = np.ldexp(float(q.sign), q.exponent)
            assert vi == want and np.signbit(vi) == (q.sign < 0)


class TestBinaryEncode:
    def test_examples(self):
        assert sa.binary_encode(0.625, 4).terms == ((1, -1), (1, -3))
        assert sa.binary_encode(-0.5, 4).terms == ((-1, -1),)
        # 4-bit budget = sign + 3 fractional bits
        assert sa.binary_encode(1 / 3, 4).terms == ((1, -2), (1, -3))

    def test_rounding_to_fractional_bits(self):
        # the budget's fractional part is num_bits - 1 wide
        assert sa.binary_encode(1 / 3, 3).terms == ((1, -2),)
        assert sa.binary_encode(1 / 3, 2).terms == ((1, -1),)

    def test_ties_away_from_zero(self):
        # |t| * 2**2 = 2.5 rounds away to 3 = 0b11
        assert sa.binary_encode(0.625, 3).terms == ((1, -1), (1, -2))
        assert sa.binary_encode(-0.625, 3).terms == ((-1, -1), (-1, -2))

    def test_bounds(self):
        assert sa.binary_encode(0.0, 8).terms == ()
        assert sa.binary_encode(1.0, 8).terms == ((1, 0),)
        with pytest.raises(ValueError):
            sa.binary_encode(1.5, 8)
        with pytest.raises(ValueError):
            sa.binary_encode(0.5, 0)

    @given(st.floats(-1.0, 1.0), st.integers(1, 1200))
    def test_terms_equal_the_shift_loop(self, t, num_bits):
        # the former bit loop, one shift of the whole integer per bit
        frac_bits = num_bits - 1
        q = int(Fraction(abs(t)) * (1 << frac_bits) + Fraction(1, 2))
        sign = 1 if t > 0 else -1
        want = tuple((sign, bit - frac_bits)
                     for bit in range(q.bit_length() - 1, -1, -1)
                     if q >> bit & 1)
        assert sa.binary_encode(t, num_bits).terms == want

    def test_distortion_law(self):
        # 5% of 4**-b / 3 at modest sample counts
        for b in (3, 5, 8):
            mse = sa.binary_distortion_oracle(b, 400_000, seed=b)
            ref = 4.0 ** (-b) / 3.0
            assert abs(mse - ref) <= 0.05 * ref


class TestCsdEncode:
    def test_examples(self):
        assert sa.csd_encode(0.75, 2).terms == ((1, 0), (-1, -2))
        assert sa.csd_encode(0.5, 1).terms == ((1, -1),)
        f = sa.csd_encode(2 / 3, 1)
        assert f.terms == ((1, -1),)
        assert abs(2 / 3 - f.value) == pytest.approx(1 / 6)

    def test_zero_and_budget(self):
        assert sa.csd_encode(0.0, 5).terms == ()
        assert sa.csd_encode(0.8125, 0).terms == ()
        with pytest.raises(ValueError):
            sa.csd_encode(0.5, -1)

    def test_terms_strictly_decreasing(self):
        rng = np.random.default_rng(102)
        for t in rng.uniform(-2.0, 2.0, 500):
            f = sa.csd_encode(float(t), 6)
            exps = [e for _, e in f.terms]
            assert exps == sorted(exps, reverse=True)
            assert len(set(exps)) == len(exps)

    def test_residual_contraction(self):
        # each step shrinks the residual by at least a factor 3
        rng = np.random.default_rng(103)
        for t in rng.uniform(-1.0, 1.0, 500):
            t = float(t)
            if t == 0.0:
                continue
            prev = abs(t)
            for c in range(1, 5):
                err = abs(t - sa.csd_encode(t, c).value)
                assert err <= prev / 3 + 1e-18
                prev = err

    def test_error_nonincreasing_and_exact_recovery(self):
        rng = np.random.default_rng(104)
        for t in rng.uniform(-1.0, 1.0, 200):
            t = float(t)
            errs = [abs(t - sa.csd_encode(t, c).value) for c in range(6)]
            assert all(a >= b - 1e-18 for a, b in zip(errs, errs[1:]))
        # sums of non-adjacent powers reproduce exactly at their term count
        for t, c in [(0.5, 1), (2.5, 2), (0.1015625, 3), (-1.25, 2)]:
            assert sa.csd_encode(t, c).value == t

    def test_scalar_matches_vector_oracle_path(self):
        rng = np.random.default_rng(105)
        t = rng.uniform(-1.0, 1.0, 200)
        r = t.copy()
        for _ in range(3):
            r -= pow2_round_array(r, e_min=None, e_max=None)
        for ti, ri in zip(t, r):
            assert float(ti) - sa.csd_encode(float(ti), 3).value == ri

    def test_distortion_oracle(self):
        assert sa.csd_distortion_oracle(0, 100_000, 0) == \
            pytest.approx(1 / 3, rel=0.02)
        assert sa.csd_distortion_oracle(1, 400_000, 1) == \
            pytest.approx(1 / 84, rel=0.02)
        assert sa.csd_distortion_oracle(2, 400_000, 2) == \
            pytest.approx(28.0 ** -2 / 3, rel=0.03)


class TestCsdForm:
    def test_decode_examples(self):
        d = sa.csd_decode(sa.CsdForm(((1, 0), (-1, -2))))
        assert (d.mantissa, d.exponent) == (3, -2)
        assert not sa.csd_decode(sa.CsdForm())
        d = sa.csd_decode(sa.CsdForm(((-1, -1),)))
        assert (d.mantissa, d.exponent) == (-1, -1)

    def test_str(self):
        assert str(sa.CsdForm(((1, 0), (-1, -2)))) == "+2^0 -2^-2"
        assert str(sa.CsdForm()) == "0"
        assert str(sa.SignedPow2(-1, -2)) == "-2^-2"
        assert str(sa.SignedPow2(0)) == "0"

    def test_validation(self):
        with pytest.raises(ValueError):
            sa.CsdForm(((1, 0), (1, 0)))
        with pytest.raises(ValueError):
            sa.CsdForm(((1, -2), (1, 0)))
        with pytest.raises(ValueError):
            sa.CsdForm(((2, 0),))


class TestDyadic:
    def test_normalization(self):
        d = sa.Dyadic(12, 3)  # 12 * 8 = 3 * 32
        assert (d.mantissa, d.exponent) == (3, 5)
        assert sa.Dyadic(0, 17) == sa.Dyadic(0)

    def test_arithmetic_matches_fractions(self):
        rng = np.random.default_rng(106)
        for _ in range(1000):
            a = sa.Dyadic(int(rng.integers(-999, 1000)),
                          int(rng.integers(-20, 21)))
            b = sa.Dyadic(int(rng.integers(-999, 1000)),
                          int(rng.integers(-20, 21)))
            assert (a + b).to_fraction() == a.to_fraction() + b.to_fraction()
            assert (a - b).to_fraction() == a.to_fraction() - b.to_fraction()
            assert (-a).to_fraction() == -a.to_fraction()
            k = int(rng.integers(-9, 10))
            assert a.times_pow2(1, k).to_fraction() == \
                a.to_fraction() * Fraction(2) ** k

    def test_times_pow2(self):
        a = sa.Dyadic(5, -2)
        assert a.times_pow2(-1, 3).to_fraction() == Fraction(-10)
        assert not a.times_pow2(0, 3)

    def test_float_round_trip(self):
        rng = np.random.default_rng(107)
        for x in rng.uniform(-100, 100, 500):
            x = float(x)
            assert sa.Dyadic.from_float(x).to_float() == x
        assert not sa.Dyadic.from_float(0.0)
        # correctly rounded at any mantissa width, down to subnormals
        for m, e in [(3 ** 700, -1200), (-(3 ** 700) - 1, -1000),
                     (2 ** 1100 + 1, -1100), (5, -1075), (3, -1075)]:
            assert sa.Dyadic(m, e).to_float() == \
                float(Fraction(m) * Fraction(2) ** e)
        assert math.copysign(1.0, sa.Dyadic(-1, -10 ** 9).to_float()) == -1.0
        assert sa.Dyadic(1, -10 ** 9).to_float() == 0.0
        with pytest.raises(OverflowError):
            sa.Dyadic(1, 1024).to_float()

    def test_from_fraction(self):
        assert sa.Dyadic.from_fraction(Fraction(3, 8)) == sa.Dyadic(3, -3)
        with pytest.raises(ValueError):
            sa.Dyadic.from_fraction(Fraction(1, 3))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            sa.Dyadic(0.5)
