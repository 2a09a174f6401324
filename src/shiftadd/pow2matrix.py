"""Sparse matrices whose nonzeros are signed powers of two.

A ``Pow2Matrix`` is stored column-major as four validated integer arrays,
and every layer reads or writes them directly: the greedy fit builds them
from the weights it wrote, the plan loader parses them from the file's
nested ``[row, sign, exp]`` lists, and the exact engine, exact
reconstruction, the effective-codebook roll-forward ``advance_effective``
and the cost accounting all run on them.  ``to_records`` is the file view,
and ``to_json`` writes that view's text.

Exact products run on the stored columns: ``walk`` schedules ``h @ mat``,
one sum per nonempty column, so exact reconstruction walks a chain as it
is, and the engine's ``mat @ h = (h @ mat.T).T`` walks the transposes
(``transpose``).  ``walk`` gives every wire of such a chain a static binary
point, as a hardware build fixes it, and turns each matrix into executable
``Segments``: only the terms above their output's point are shifted, and
each output carries a static bound on its integer's bits.  One shift-add
kernel, ``shift_add``, runs them, and ``run`` runs a chain of them from
its input wires to its last outputs.
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
    """``h @ mat`` for one ``Pow2Matrix`` made executable on wire vectors at
    static points.

    A wire vector holds one Python int per stored wire and, last, a
    constant 0 that every wire nothing writes shares.  Term ``t`` reads
    position ``source[t]`` of the input vector; the terms at ``shifted``
    are shifted left by ``lshift`` (Python ints, all positive), the rest
    not at all, and the terms at ``negated`` are negated; the terms from
    ``starts[j]`` to the next start sum into position ``j`` of the output
    vector.  The last term reads the input's constant 0 and alone makes
    the output's.  Column ``r`` of the matrix is at position
    ``slot[r]``, the constant 0 if no entry writes it.  Position ``j``
    holds an integer ``v`` worth ``v * 2**point[j]`` (``UNWRITTEN`` where
    it is always 0), with ``|v| < 2**bits[j]`` while each input wire's
    integer stays below ``2**`` its own bound.
    """

    source: np.ndarray
    shifted: np.ndarray
    lshift: np.ndarray
    negated: np.ndarray
    starts: np.ndarray
    slot: np.ndarray
    point: np.ndarray
    bits: np.ndarray


# The point of a wire that nothing writes, which always holds 0: far above
# any point a chain reaches (each matrix moves one by at most 64), and an
# exponent added to it cannot overflow int64.
UNWRITTEN = 1 << 62


def shift_add(x: np.ndarray, seg: Segments) -> np.ndarray:
    """The output wire vector of ``seg`` from the input wire vector ``x``,
    an object array of Python ints: gather, shift the shifted terms,
    negate the negated ones and sum each segment in order
    (``np.add.reduceat``)."""
    terms = x[seg.source]
    terms[seg.shifted] <<= seg.lshift
    terms[seg.negated] = -terms[seg.negated]
    return np.add.reduceat(terms, seg.starts)


def run(x: np.ndarray, steps, point) -> tuple[np.ndarray, np.ndarray]:
    """The integers and binary points of the last grouping's outputs when
    ``steps`` (``walk``'s segments) run on the input wires ``x``, an object
    array of Python ints at the points ``point`` that ``walk`` started
    from; an output that no entry writes is 0 at ``UNWRITTEN``."""
    h, slot, point = np.append(x, 0), np.arange(len(x)), np.asarray(point)
    for seg in steps:
        h = shift_add(h, seg)
        slot, point = seg.slot, seg.point
    return h[slot], point[slot]


def walk(mats, point, bits):
    """Yield the executable ``Segments`` of ``h @ mat`` for each
    ``Pow2Matrix`` ``mat`` of ``mats`` in turn, the outputs of one the
    inputs of the next, from input wires at the binary points ``point``
    whose integers have at most ``bits`` bits; the first input vector holds
    those wires in order, then its constant 0.  Each nonempty column is one
    segment of its stored entries, in stored order.

    Column ``r`` sits at ``P_r = min(exp[t] + point[row[t]])`` over its
    entries ``t``, so entry ``t`` is shifted left by ``exp[t] +
    point[row[t]] - P_r >= 0`` and at least one entry per column is not
    shifted at all.  A wire that nothing writes (an empty column, not
    stored, or one whose entries all read such wires) holds 0 at
    ``UNWRITTEN`` with 0 bits: the entries reading it are not shifted and
    do not lower their column's point.  ``m`` terms below ``2**b`` sum
    below ``m * 2**b``, so column ``r`` of ``m`` entries gets
    ``max(bits[row[t]] + shift[t]) + (m - 1).bit_length()`` bits.
    """
    point = np.append(np.asarray(point, dtype=np.int64), UNWRITTEN)
    bits = np.append(np.asarray(bits, dtype=np.int64), 0)
    slot = np.arange(len(point) - 1)
    for mat in mats:
        filled = np.flatnonzero(mat.col_len)
        starts, lengths = mat.first[filled], mat.col_len[filled]
        source = slot[mat.row]
        read = point[source]
        written = read != UNWRITTEN
        at = np.where(written, mat.exp + read, UNWRITTEN)
        low = np.minimum.reduceat(at, starts)
        shift = np.where(written, at - np.repeat(low, lengths), 0)
        top = np.maximum.reduceat(bits[source] + shift, starts)
        # (m - 1).bit_length() is frexp's exponent, exact below 2**53
        grown = np.where(low == UNWRITTEN, 0, top + np.frexp(lengths - 1)[1])
        slot = np.full(mat.cols, len(filled))
        slot[filled] = np.arange(len(filled))
        shifted = np.flatnonzero(shift)
        seg = Segments(*map(_read_only, (
            np.append(source, len(point) - 1), shifted,
            shift[shifted].astype(object), np.flatnonzero(mat.negative),
            np.append(starts, mat.nnz), slot,
            np.append(low, UNWRITTEN), np.append(grown, 0))))
        yield seg
        point, bits = seg.point, seg.bits


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

    def transpose(self) -> "Pow2Matrix":
        """The ``cols x rows`` transpose: its column ``r`` holds row ``r``'s
        entries in column order.  Built through the constructor's checks
        each time it is asked for, and kept nowhere."""
        order = np.argsort(self.row, kind="stable")
        return Pow2Matrix(self.cols, self.rows, self.col[order],
                          self.negative[order], self.exp[order],
                          np.bincount(self.row, minlength=self.rows))

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
