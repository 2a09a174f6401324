"""Sparse matrices whose nonzeros are signed powers of two.

The column-major layout mirrors how both codebook factors and wiring stages
are built and applied: each column lists ``(row, coefficient)`` pairs with
strictly increasing row indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, PlanFormatError
from .pot import EXP_MAX, EXP_MIN, SignedPow2

Column = tuple[tuple[int, SignedPow2], ...]


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

    def dense(self) -> np.ndarray:
        """Dense float64 rendering (every entry is exactly representable)."""
        a = np.zeros((self.rows, self.cols))
        for k, col in enumerate(self.columns):
            for i, c in col:
                a[i, k] = math.ldexp(float(c.sign), c.exponent)
        return a

    def to_records(self) -> list[list[list[int]]]:
        """JSON-friendly nested lists ``[[row, sign, exp], ...]`` per column."""
        return [[[i, c.sign, c.exponent] for i, c in col]
                for col in self.columns]

    @classmethod
    def from_records(cls, rows: int, records) -> "Pow2Matrix":
        """Inverse of ``to_records``.

        Exponents outside ``[EXP_MIN, EXP_MAX]`` raise ``PlanFormatError``:
        every fitted stage lies in that range, and the bound caps the shifts
        exact evaluation performs on an untrusted plan.
        """
        cols = []
        for col in records:
            entries = []
            for i, s, e in col:
                e = int(e)
                if not EXP_MIN <= e <= EXP_MAX:
                    raise PlanFormatError(
                        f"exponent {e} outside [{EXP_MIN}, {EXP_MAX}]")
                entries.append((int(i), SignedPow2(int(s), e)))
            cols.append(tuple(entries))
        return cls(rows, len(cols), tuple(cols))


def advance_effective(eff: np.ndarray, stage: Pow2Matrix) -> np.ndarray:
    """Return ``eff @ stage`` exploiting the stage's sparsity.

    ``eff`` is a dense float matrix with as many columns as ``stage`` has
    rows; used to roll the effective codebook forward one wiring stage.
    """
    if eff.shape[1] != stage.rows:
        raise DimensionError(
            f"effective matrix has {eff.shape[1]} columns, stage has "
            f"{stage.rows} rows")
    out = np.zeros((eff.shape[0], stage.cols))
    for k, col in enumerate(stage.columns):
        acc = out[:, k]
        for j, c in col:
            acc += math.ldexp(float(c.sign), c.exponent) * eff[:, j]
    return out
