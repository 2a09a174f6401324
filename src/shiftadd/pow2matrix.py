"""Sparse matrices whose nonzeros are signed powers of two.

A ``Pow2Matrix`` is stored column-major as four validated integer arrays,
and every layer reads or writes them directly: the greedy fit builds them
from the weights it wrote, the plan loader parses them from the file's
nested ``[row, sign, exp]`` lists, and the exact engine, exact
reconstruction, the effective-codebook roll-forward ``advance_effective``
and the cost accounting all run on them.  ``to_records`` is the file view,
and ``to_json`` writes that view's text.

Exact products run on ``Segments``, the entries grouped by the output they
sum into, through one shift-add kernel, ``shift_add``: ``by_row`` serves
``mat @ h`` (the engine) and ``by_col`` serves ``h @ mat`` (exact
reconstruction).  ``growth_bits`` bounds how many bits one such product
adds to its input's magnitude.  Each view, like ``min_exp`` and
``lshift``, is built on first use and cached on the read-only matrix.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, PlanFormatError
from .pot import EXP_MAX, EXP_MIN

_INDEX_MAX = np.iinfo(np.int32).max
_FIELDS = ("row", "negative", "exp", "col_len")
_DTYPES = (np.int32, bool, np.int16, np.int32)


class Segments(NamedTuple):
    """A matrix's entries grouped by the output each one sums into.

    On the last axis of an input, entry ``t`` reads position ``source[t]``,
    is shifted left by ``lshift[t]`` and negated where ``negative[t]``;
    the segment of entries from ``starts[j]`` to the next start sums into
    output ``targets[j]`` of ``width``, and the other outputs are zero.
    ``lshift`` holds Python ints, so the shifts run on them directly.
    """

    source: np.ndarray
    lshift: np.ndarray
    negative: np.ndarray
    starts: np.ndarray
    targets: np.ndarray
    width: int


def shift_add(x: np.ndarray, seg: Segments) -> np.ndarray:
    """The segment sums of ``seg`` over the last axis of ``x``, an object
    array of Python ints: gather, shift, negate, sum each segment in order
    (``np.add.reduceat``) and place the sums in their outputs."""
    terms = x[..., seg.source] << seg.lshift
    np.negative(terms, out=terms, where=seg.negative)
    out = np.zeros(x.shape[:-1] + (seg.width,), dtype=object)
    out[..., seg.targets] = np.add.reduceat(terms, seg.starts, axis=-1)
    return out


def growth_bits(seg: Segments) -> int:
    """The most bits ``shift_add(x, seg)`` adds to the bit length of the
    largest ``|x|``: a segment of ``m`` terms, each shifted by at most
    ``max(lshift)``, sums to less than ``m * 2**max(lshift)`` times that
    magnitude, so ``max(lshift) + (m - 1).bit_length()`` bits for the
    longest segment."""
    if not len(seg.source):
        return 0
    longest = int(np.diff(seg.starts, append=len(seg.source)).max())
    return int(seg.lshift.max()) + (longest - 1).bit_length()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Pow2Matrix:
    """A ``rows x cols`` matrix of signed powers of two, column-major.

    Entry ``t`` is ``(-1 if negative[t] else 1) * 2**exp[t]`` at row
    ``row[t]``; column ``k`` holds the next ``col_len[k]`` entries, with
    strictly increasing rows.  Construction checks all of this, and that
    every exponent lies in ``[EXP_MIN, EXP_MAX]`` (the range of fitted
    stages, which also caps the shifts exact evaluation performs on an
    untrusted plan), then stores read-only arrays of the narrow dtypes
    ``row`` int32, ``negative`` bool, ``exp`` int16, ``col_len`` int32.
    """

    rows: int
    cols: int
    row: np.ndarray
    negative: np.ndarray
    exp: np.ndarray
    col_len: np.ndarray

    def __post_init__(self):
        row, neg, exp, col_len = arrays = [np.asarray(getattr(self, f))
                                           for f in _FIELDS]
        if not (0 <= self.rows <= _INDEX_MAX and 0 <= self.cols <= _INDEX_MAX):
            raise DimensionError(f"{self.rows}x{self.cols} is out of range")
        kinds = {a.dtype.kind for a in (row, exp, col_len)}
        if neg.dtype != bool or not kinds <= set("iu"):
            raise TypeError("negative must be a bool array, the rest integer")
        if col_len.shape != (self.cols,):
            raise DimensionError(
                f"expected {self.cols} columns, got {len(col_len)}")
        if not row.shape == neg.shape == exp.shape == (col_len.sum(),) or \
                (col_len < 0).any():
            raise DimensionError("entry arrays disagree with the column "
                                 "lengths")
        col = np.repeat(np.arange(self.cols), col_len)
        key = col * self.rows + row
        for bad, error, what in (
                ((row < 0) | (row >= self.rows), DimensionError,
                 lambda t: f"row index {row[t]} out of range"),
                ((exp < EXP_MIN) | (exp > EXP_MAX), ValueError,
                 lambda t: f"exponent {exp[t]} outside [{EXP_MIN}, "
                           f"{EXP_MAX}]"),
                (np.append(False, key[1:] <= key[:-1]), ValueError,
                 lambda t: "row indices must be strictly increasing")):
            if bad.any():
                t = np.argmax(bad)
                raise error(f"{what(t)} in column {col[t]}")
        for f, a, dtype in zip(_FIELDS, arrays, _DTYPES):
            a = a.astype(dtype)
            a.flags.writeable = False
            object.__setattr__(self, f, a)

    def __eq__(self, other):
        if not isinstance(other, Pow2Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in _FIELDS)

    @property
    def nnz(self) -> int:
        return len(self.row)

    @functools.cached_property
    def min_exp(self) -> int:
        """Smallest exponent, 0 for an empty matrix: every entry is a
        left shift by ``lshift`` times ``2**min_exp``."""
        return int(self.exp.min()) if len(self.exp) else 0

    @functools.cached_property
    def lshift(self) -> np.ndarray:
        """``exp - min_exp`` of each entry, as int16: the constructor keeps
        exponents in ``[EXP_MIN, EXP_MAX]``, so the difference cannot wrap."""
        return _read_only(self.exp - self.min_exp)

    @functools.cached_property
    def by_row(self) -> Segments:
        """The entries in row order, one segment per nonempty row: the view
        ``shift_add`` computes ``self @ h`` from."""
        row_len = np.bincount(self.row, minlength=self.rows)
        filled = np.flatnonzero(row_len)
        return self._segments(np.argsort(self.row, kind="stable"), self.col,
                              (np.cumsum(row_len) - row_len)[filled], filled,
                              self.rows)

    @functools.cached_property
    def by_col(self) -> Segments:
        """The entries in stored order, one segment per nonempty column:
        the view ``shift_add`` computes ``h @ self`` from."""
        filled = np.flatnonzero(self.col_len)
        return self._segments(slice(None), self.row, self.first[filled],
                              filled, self.cols)

    def _segments(self, order, source, starts, targets, width) -> Segments:
        """``Segments`` over the stored entries taken in ``order``; stored
        entry ``t`` reads input position ``source[t]``."""
        return Segments(*map(_read_only, (
            source[order], self.lshift[order].astype(object),
            self.negative[order], starts, targets)), width)

    @property
    def col(self) -> np.ndarray:
        """Column index of each entry."""
        return np.repeat(np.arange(self.cols), self.col_len)

    @property
    def first(self) -> np.ndarray:
        """Offset of each column's first entry (its end for an empty one)."""
        return np.cumsum(self.col_len) - self.col_len

    def coef(self) -> np.ndarray:
        """Entry values as float64 (exact)."""
        return np.ldexp(np.where(self.negative, -1.0, 1.0), self.exp)

    def op_counts(self) -> tuple[int, int, int]:
        """``(additions, shifts, sign_changes)`` of one multiply: a column
        of ``m`` entries costs ``m - 1`` additions, one shift per entry."""
        nnz = self.nnz
        return (nnz - int(np.count_nonzero(self.col_len)), nnz,
                int(np.count_nonzero(self.negative)))

    def dense(self) -> np.ndarray:
        """Dense float64 rendering (every entry is exactly representable)."""
        out = np.zeros((self.rows, self.cols))
        out[self.row, self.col] = self.coef()
        return out

    def to_records(self) -> list[list[list[int]]]:
        """JSON-friendly nested lists ``[[row, sign, exp], ...]`` per column."""
        flat = np.stack([self.row, np.where(self.negative, -1, 1),
                         self.exp], axis=1).tolist()
        ends = np.cumsum(self.col_len).tolist()
        return [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]

    def to_json(self) -> str:
        """``to_records`` as compact JSON text, the same as ``json.dumps``
        writes it, straight from the arrays through one ``%``-template."""
        template = "[%s]" % ",".join(map(_column_template,
                                         self.col_len.tolist()))
        return template % tuple(np.stack(
            [self.row, np.where(self.negative, -1, 1), self.exp],
            axis=1).ravel().tolist())

    @classmethod
    def from_records(cls, rows: int, records) -> "Pow2Matrix":
        """Inverse of ``to_records``: one column per record list.

        Every entry must be a ``[row, sign, exp]`` triple of integers (each
        leaf is read as a C ``int64``, so a float, string or ``None`` is
        refused rather than truncated, and an integer beyond 64 bits too)
        and every sign +-1, else ``PlanFormatError``; the constructor checks
        rows and exponents.
        """
        try:
            col_len = list(map(len, records))
            entries = list(chain.from_iterable(records))
            if not set(map(len, entries)) <= {3}:
                raise ValueError("an entry is not a triple")
            leaves = array("q", list(chain.from_iterable(entries)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise PlanFormatError(
                f"stage entries must be [row, sign, exp] integer triples: "
                f"{exc}") from None
        i, s, e = np.frombuffer(leaves, dtype=np.int64).reshape(-1, 3).T
        bad = np.flatnonzero((s != 1) & (s != -1))
        if bad.size:
            raise PlanFormatError(f"coefficient sign {s[bad[0]]} is not +-1")
        return cls(rows, len(col_len), i, s < 0, e,
                   np.array(col_len, dtype=np.int64))


@functools.cache
def _column_template(length: int) -> str:
    """The ``%``-template of one column's records of ``length`` entries."""
    return "[%s]" % ",".join(["[%d,%d,%d]"] * length)


def advance_effective(eff: np.ndarray, stage: Pow2Matrix) -> np.ndarray:
    """Return ``eff @ stage`` exploiting the stage's sparsity.

    ``eff`` is a dense float matrix with as many columns as ``stage`` has
    rows; used to roll the effective codebook forward one wiring stage.
    Each output column adds its scaled codebook columns to zero one after
    another in stored order, one array pass per position in the column, so
    the result equals a per-entry loop bit for bit, signed zeros included
    (``np.add.reduceat`` adds in another order).
    """
    if eff.shape[1] != stage.rows:
        raise DimensionError(
            f"effective matrix has {eff.shape[1]} columns, stage has "
            f"{stage.rows} rows")
    coef = stage.coef()
    first = stage.first
    out = np.zeros((eff.shape[0], stage.cols))
    for p in range(int(stage.col_len.max(initial=0))):
        has = stage.col_len > p
        t = first[has] + p
        out[:, has] += eff[:, stage.row[t]] * coef[t]
    return out
