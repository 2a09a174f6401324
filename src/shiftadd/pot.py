"""Scalar power-of-two arithmetic: quantizers, signed-digit forms, exact dyadics.

Conventions used package-wide:

* A signed power of two is 0 or ``±2**e`` for integer ``e``; multiplying by
  one is a bit shift plus an optional sign flip.
* Rounding to the nearest power of two uses the arithmetic midpoint: values
  in ``[1.5 * 2**(e-1), 1.5 * 2**e)`` map to ``2**e``.  The relative error
  never exceeds 1/3, and the midpoint itself rounds to the larger exponent.
* Bit budgets count sign-magnitude fixed point: ``num_bits = b`` means one
  sign bit plus ``b - 1`` fractional magnitude bits.  Rounding a uniform
  variable on [-1, 1] that way has mean squared error ``4**(-b) / 3``.
* Distortion oracles draw from numpy's PCG64 via ``numpy.random.default_rng``
  so every reported figure is reproducible from the seed alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

EXP_MIN = -64
EXP_MAX = 63


# ---------------------------------------------------------------------------
# signed powers of two
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignedPow2:
    """A scalar from the alphabet {0, +-2**e}.

    ``sign`` is -1, 0 or +1; ``exponent`` is meaningless when ``sign == 0``.
    ``clamped`` records that a quantizer had to clip the exponent into the
    configured range (the value is still the clipped power of two).
    """

    sign: int
    exponent: int = 0
    clamped: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")

    @property
    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        return math.ldexp(float(self.sign), self.exponent)

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        return f"{'+' if self.sign > 0 else '-'}2^{self.exponent}"


def quantize_pow2(x: float, e_min: int | None = EXP_MIN,
                  e_max: int | None = EXP_MAX) -> SignedPow2:
    """Round ``x`` to the nearest signed power of two.

    With ``p = 2**floor(log2|x|)`` the result is ``2**(floor(log2|x|)+1)``
    when ``|x| >= 1.5 p`` and ``p`` otherwise, carrying the sign of ``x``.
    Zero maps to zero.  Exponents outside ``[e_min, e_max]`` are clipped and
    the ``clamped`` flag is set; pass ``None`` bounds to disable clipping.
    """
    if not math.isfinite(x):
        raise ValueError(f"cannot quantize non-finite value {x!r}")
    if x == 0:
        return SignedPow2(0)
    m, e = math.frexp(abs(x))  # abs(x) = m * 2**e with 0.5 <= m < 1
    exp = e if m >= 0.75 else e - 1
    clamped = False
    if e_min is not None and exp < e_min:
        exp, clamped = e_min, True
    if e_max is not None and exp > e_max:
        exp, clamped = e_max, True
    return SignedPow2(1 if x > 0 else -1, exp, clamped)


_MIN_NORMAL = 2.0 ** -1022
_HALF_MANTISSA = 1 << 51
_EXPONENT_FIELD = 0x7FF << 52


def _pow2_bound(e: int | None) -> float | None:
    if e is None:
        return None
    return math.inf if e > 1023 else math.ldexp(1.0, e)


def pow2_round_array(x: np.ndarray, e_min: int | None = EXP_MIN,
                     e_max: int | None = EXP_MAX) -> np.ndarray:
    """Vectorized ``quantize_pow2`` returning float values (0 where x == 0).

    Equal to ``quantize_pow2`` on every finite input.  It rounds on the
    float64 bit pattern: adding ``2**51`` to the bits of ``|x|`` carries
    into the exponent field exactly when the mantissa is at least 1.5, and
    masking off the mantissa leaves the power of two.  Subnormals are first
    scaled up by an exact ``2**64`` and scaled back afterwards.
    """
    x = np.asarray(x, dtype=np.float64)
    val = np.abs(x, out=np.empty_like(x))
    sub = val < _MIN_NORMAL
    scale = bool(sub.any())
    if scale:
        val[sub] *= 2.0 ** 64
    bits = val.view(np.int64)
    bits += _HALF_MANTISSA
    bits &= _EXPONENT_FIELD
    if scale:
        val[sub] *= 2.0 ** -64
    if e_min is not None or e_max is not None:
        np.clip(val, _pow2_bound(e_min), _pow2_bound(e_max), out=val)
    np.copysign(val, x, out=val)
    val[x == 0.0] = 0.0
    return val


# ---------------------------------------------------------------------------
# signed-digit forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CsdForm:
    """A sum of signed powers of two with strictly decreasing exponents.

    ``terms`` is an ordered tuple of ``(sign, exponent)`` pairs with
    ``sign in {-1, +1}``.
    """

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        prev = None
        for s, e in self.terms:
            if s not in (-1, 1):
                raise ValueError(f"term sign must be +-1, got {s}")
            if prev is not None and e >= prev:
                raise ValueError("term exponents must be strictly decreasing")
            prev = e

    @property
    def value(self) -> float:
        return math.fsum(math.ldexp(float(s), e) for s, e in self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " ".join(f"{'+' if s > 0 else '-'}2^{e}" for s, e in self.terms)


def binary_encode(t: float, num_bits: int) -> CsdForm:
    """Sign-magnitude binary expansion of ``t`` in a ``num_bits`` budget.

    The budget is one sign bit plus ``num_bits - 1`` fractional magnitude
    bits; ``|t|`` is rounded to the nearest multiple of ``2**(1 - num_bits)``
    with ties away from zero.  All returned signs equal ``sign(t)``.
    """
    if num_bits < 1:
        raise ValueError("num_bits must be >= 1")
    if not abs(t) <= 1.0:
        raise ValueError(f"binary_encode expects t in [-1, 1], got {t!r}")
    frac_bits = num_bits - 1
    q = int(Fraction(abs(t)) * (1 << frac_bits) + Fraction(1, 2))
    sign = 1 if t > 0 else -1
    # bin() reads every bit in one pass; shifting q once per bit would
    # copy the whole integer each time
    digits = bin(q)[2:]
    top = len(digits) - 1 - frac_bits
    return CsdForm(tuple((sign, top - i) for i, d in enumerate(digits)
                         if d == "1"))


def csd_encode(t: float, max_terms: int) -> CsdForm:
    """Greedy recentered signed-digit expansion of ``t``.

    Repeatedly rounds the residual to the nearest signed power of two and
    subtracts it, until ``max_terms`` terms are used or the residual is zero.
    Every subtraction is exact in double precision (the rounded power is
    within a factor 2 of the residual), so the loop carries no rounding
    error and the final residual equals ``t - value`` exactly.
    """
    if max_terms < 0:
        raise ValueError("max_terms must be >= 0")
    terms = []
    r = float(t)
    for _ in range(max_terms):
        if r == 0.0:
            break
        q = quantize_pow2(r, e_min=None, e_max=None)
        terms.append((q.sign, q.exponent))
        r -= q.value
    return CsdForm(tuple(terms))


def csd_decode(f: CsdForm) -> "Dyadic":
    """Exact dyadic value of a signed-digit form."""
    if not f.terms:
        return Dyadic(0, 0)
    e_min = min(e for _, e in f.terms)
    m = sum(s << (e - e_min) for s, e in f.terms)
    return Dyadic(m, e_min)


def csd_distortion_oracle(num_terms: int, samples: int, seed: int) -> float:
    """Empirical MSE of ``csd_encode`` at ``num_terms`` over uniform [-1, 1].

    Vectorized but residual-exact (identical to the scalar encoder); the
    mean approaches ``28**(-num_terms) / 3``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    t = rng.uniform(-1.0, 1.0, samples)
    r = t.copy()
    for _ in range(num_terms):
        r -= pow2_round_array(r, e_min=None, e_max=None)
    return float(np.mean(r * r))


def binary_distortion_oracle(num_bits: int, samples: int, seed: int) -> float:
    """Empirical MSE of ``binary_encode`` at ``num_bits`` over uniform [-1, 1].

    The mean approaches ``4**(-num_bits) / 3``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    t = np.abs(rng.uniform(-1.0, 1.0, samples))
    scale = math.ldexp(1.0, num_bits - 1)
    q = np.floor(t * scale + 0.5)
    err = t - q / scale
    return float(np.mean(err * err))


# ---------------------------------------------------------------------------
# exact dyadic numbers
# ---------------------------------------------------------------------------

class Dyadic:
    """An exact number ``mantissa * 2**exponent``.

    The mantissa is an arbitrary-precision integer kept odd (or zero, with
    exponent zero), so equal values have equal representations.  Addition,
    negation and shifting are exact; these are the only operations the
    evaluation engine needs.
    """

    __slots__ = ("mantissa", "exponent")

    def __init__(self, mantissa: int, exponent: int = 0):
        mantissa = operator.index(mantissa)
        exponent = operator.index(exponent)
        if mantissa == 0:
            self.mantissa, self.exponent = 0, 0
            return
        shift = (mantissa & -mantissa).bit_length() - 1
        self.mantissa = mantissa >> shift
        self.exponent = exponent + shift

    @classmethod
    def from_float(cls, x: float) -> "Dyadic":
        if not math.isfinite(x):
            raise ValueError(f"cannot represent {x!r} exactly")
        m, e = math.frexp(x)
        return cls(int(math.ldexp(m, 53)), e - 53)

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Dyadic":
        d = f.denominator
        if d & (d - 1):
            raise ValueError(f"{f} has no exact dyadic representation")
        return cls(f.numerator, 1 - d.bit_length())

    def to_fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(self.mantissa << self.exponent)
        return Fraction(self.mantissa, 1 << -self.exponent)

    def to_float(self) -> float:
        """The value rounded once, half-even, to float64.

        Holds for any mantissa width; raises ``OverflowError`` only when the
        value itself is beyond the float64 range.
        """
        m, e = self.mantissa, self.exponent
        if e >= 0:
            # float(m) rounds once; ldexp only scales.
            return math.ldexp(float(m), e)
        if m.bit_length() + e < -1075:
            # below half the smallest subnormal: skip building 1 << -e
            return -0.0 if m < 0 else 0.0
        return m / (1 << -e)  # int true division rounds correctly

    def times_pow2(self, sign: int, exponent: int) -> "Dyadic":
        """Multiply by ``sign * 2**exponent`` (a shift plus a sign flip)."""
        if sign == 0 or self.mantissa == 0:
            return Dyadic(0, 0)
        return Dyadic(self.mantissa if sign > 0 else -self.mantissa,
                      self.exponent + exponent)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        if self.mantissa == 0:
            return other
        if other.mantissa == 0:
            return self
        e = min(self.exponent, other.exponent)
        m = (self.mantissa << (self.exponent - e)) + \
            (other.mantissa << (other.exponent - e))
        return Dyadic(m, e)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.mantissa, self.exponent)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Dyadic)
                and self.mantissa == other.mantissa
                and self.exponent == other.exponent)

    def __hash__(self) -> int:
        return hash((self.mantissa, self.exponent))

    def __bool__(self) -> bool:
        return self.mantissa != 0

    def __repr__(self) -> str:
        return f"Dyadic({self.mantissa}, {self.exponent})"


def align(values: list[Dyadic]) -> tuple[list[int], int]:
    """Write dyadics over one shared exponent: ``(ints, e)`` with
    ``values[i] == ints[i] * 2**e``.

    ``e`` is the smallest exponent of a nonzero value, or 0 if there is none.
    """
    e = min((v.exponent for v in values if v.mantissa), default=0)
    return [v.mantissa << (v.exponent - e) if v.mantissa else 0
            for v in values], e
