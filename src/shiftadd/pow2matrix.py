"""Sparse matrices whose nonzeros are signed powers of two.

The column-major layout mirrors how both codebook factors and wiring stages
are built and applied: each column lists ``(row, coefficient)`` pairs with
strictly increasing row indices.

Every hot consumer (the exact engine, exact reconstruction, and the
effective-codebook roll-forward ``advance_effective``) runs on one compiled
form, ``Pow2Matrix.compiled``: flat integer arrays of the stored entries in
column order, built on first use and kept with the matrix.  The column
tuples stay the plan's data model, and ``plan.cost_of`` counts from them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, PlanFormatError
from .pot import EXP_MAX, EXP_MIN, SignedPow2

Column = tuple[tuple[int, SignedPow2], ...]

# Every coefficient a stage may hold, keyed by ``(sign, exponent)``: one
# shared instance each instead of one object per stored entry.
COEFFS = {(s, e): SignedPow2(s, e)
          for s in (-1, 1) for e in range(EXP_MIN, EXP_MAX + 1)}


class Compiled(NamedTuple):
    """A ``Pow2Matrix`` as integer arrays, entries in stored column order.

    Entry ``t`` is ``(-1 if negative[t] else 1) * 2**exp[t]`` at row
    ``row[t]``; column ``k`` holds the next ``col_len[k]`` entries.  The
    narrow dtypes keep the form small next to every fitted stage; building
    it raises ``OverflowError`` on an exponent beyond int16, far outside the
    ``[EXP_MIN, EXP_MAX]`` of fitted and loaded stages.
    """

    row: np.ndarray       # int32
    negative: np.ndarray  # bool
    exp: np.ndarray       # int16
    col_len: np.ndarray   # int32

    @property
    def min_exp(self) -> int:
        """Smallest exponent, 0 for an empty matrix: every entry is a
        left shift by ``lshift`` times ``2**min_exp``."""
        return int(self.exp.min()) if len(self.exp) else 0

    @property
    def lshift(self) -> np.ndarray:
        """``exp - min_exp`` of each entry, in a width that cannot wrap."""
        return self.exp.astype(np.int64) - self.min_exp

    @property
    def col(self) -> np.ndarray:
        """Column index of each entry."""
        return np.repeat(np.arange(len(self.col_len)), self.col_len)

    @property
    def first(self) -> np.ndarray:
        """Offset of each column's first entry (its end for an empty one)."""
        return np.cumsum(self.col_len) - self.col_len

    def coef(self) -> np.ndarray:
        """Entry values as float64 (exact)."""
        return np.ldexp(np.where(self.negative, -1.0, 1.0), self.exp)


@dataclass(frozen=True)
class Pow2Matrix:
    rows: int
    cols: int
    columns: tuple[Column, ...]

    def __post_init__(self):
        if len(self.columns) != self.cols:
            raise DimensionError(
                f"expected {self.cols} columns, got {len(self.columns)}")
        for k, col in enumerate(self.columns):
            prev = -1
            for i, c in col:
                if not 0 <= i < self.rows:
                    raise DimensionError(
                        f"row index {i} out of range in column {k}")
                if i <= prev:
                    raise ValueError(
                        f"row indices must be strictly increasing in column {k}")
                if c.sign == 0:
                    raise ValueError(f"stored coefficient is zero in column {k}")
                prev = i

    @property
    def nnz(self) -> int:
        return sum(len(col) for col in self.columns)

    def column_nnz(self) -> list[int]:
        return [len(col) for col in self.columns]

    @cached_property
    def compiled(self) -> Compiled:
        """The entries as integer arrays, built once on first use (never
        while loading a plan, so load time stays the parse alone)."""
        entries = [e for col in self.columns for e in col]
        return Compiled(
            np.array([i for i, _ in entries], dtype=np.int32),
            np.array([c.sign < 0 for _, c in entries], dtype=bool),
            np.array([c.exponent for _, c in entries], dtype=np.int16),
            np.array([len(col) for col in self.columns], dtype=np.int32))

    def dense(self) -> np.ndarray:
        """Dense float64 rendering (every entry is exactly representable)."""
        a = self.compiled
        out = np.zeros((self.rows, self.cols))
        out[a.row, a.col] = a.coef()
        return out

    def to_records(self) -> list[list[list[int]]]:
        """JSON-friendly nested lists ``[[row, sign, exp], ...]`` per column."""
        return [[[i, c.sign, c.exponent] for i, c in col]
                for col in self.columns]

    @classmethod
    def from_records(cls, rows: int, records) -> "Pow2Matrix":
        """Inverse of ``to_records``.

        Row, sign and exponent must be integers (``operator.index``: a float
        raises ``TypeError`` instead of being truncated).  A coefficient that
        is not in ``COEFFS`` (a sign other than +-1, or an exponent outside
        ``[EXP_MIN, EXP_MAX]``) raises ``PlanFormatError``: every fitted stage
        lies in that range, and the bound caps the shifts exact evaluation
        performs on an untrusted plan.
        """
        index = operator.index
        cols = []
        for col in records:
            entries = []
            for i, s, e in col:
                try:
                    entries.append((index(i), COEFFS[index(s), index(e)]))
                except KeyError:
                    raise PlanFormatError(
                        f"coefficient sign {s}, exponent {e} is not +-2**e "
                        f"with e in [{EXP_MIN}, {EXP_MAX}]") from None
            cols.append(tuple(entries))
        return cls(rows, len(cols), tuple(cols))


def advance_effective(eff: np.ndarray, stage: Pow2Matrix) -> np.ndarray:
    """Return ``eff @ stage`` exploiting the stage's sparsity.

    ``eff`` is a dense float matrix with as many columns as ``stage`` has
    rows; used to roll the effective codebook forward one wiring stage.
    Each output column adds its scaled codebook columns to zero one after
    another in stored order, one array pass per position in the column, so
    the result equals a per-entry loop bit for bit, signed zeros included.
    (``np.add.reduceat`` adds a segment in another order, and differed in
    the last bit on columns of five or more entries.)
    """
    if eff.shape[1] != stage.rows:
        raise DimensionError(
            f"effective matrix has {eff.shape[1]} columns, stage has "
            f"{stage.rows} rows")
    a = stage.compiled
    coef = a.coef()
    first = a.first
    out = np.zeros((eff.shape[0], stage.cols))
    for p in range(int(a.col_len.max(initial=0))):
        has = a.col_len > p
        t = first[has] + p
        out[:, has] += eff[:, a.row[t]] * coef[t]
    return out
