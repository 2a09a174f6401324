"""Sparse matrices whose nonzeros are signed powers of two.

A ``Pow2Matrix`` is stored column-major as four validated integer arrays,
and every layer reads or writes them directly: the greedy fit builds them
from the weights it wrote, the plan loader parses them from the file's
nested ``[row, sign, exp]`` lists, and the exact engine, exact
reconstruction, the effective-codebook roll-forward ``advance_effective``
and the cost accounting all run on them.  ``to_records`` is the file view,
and ``to_json`` writes that view's text, byte for byte as ``json.dumps``
does, by joining cached text pieces with no integer formatted: each entry
is a row piece and a sign-and-exponent piece, looked up in one table per
row count (only the last one is kept; a matrix with fewer entries than
rows gets a table of the rows it uses).

Exact products run on the stored arrays, with every wire of a chain at a
static binary point, as a hardware build fixes it, and a static bound on
its integer's bits; only the terms above their output's point are
shifted.  ``walk`` schedules ``h @ mat``, one sum per nonempty column, on
one wire vector per matrix, so exact reconstruction walks a chain as it
is.  ``schedule_rows`` schedules ``mat @ h``, one sum per row, straight
from the column-major arrays, on one store of wires for the whole chain:
a row of one unnegated entry is an alias of its input and is not
executed.  Both turn each matrix into executable ``Segments``, which one
shift-add kernel, ``shift_add``, runs; ``run`` runs ``walk``'s from the
input wires to the last outputs, and ``serve`` a ``Schedule``.
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
    """One ``Pow2Matrix`` made executable as sums of its terms over wire
    vectors at static points.

    Term ``t`` reads position ``source[t]`` of the input vector; the terms
    at ``shifted`` are shifted left by ``lshift`` (Python ints, all
    positive), the rest not at all, and the terms at ``negated`` are
    negated; the terms from ``starts[j]`` to the next start sum into the
    ``j``-th sum.  Output ``r`` (a column of ``walk``'s matrix, a row of
    ``schedule_rows``'s) is at position ``slot[r]`` and holds an integer
    ``v`` worth ``v * 2**point[r]`` (``UNWRITTEN`` where it is always 0),
    with ``|v| < 2**bits[r]`` while each input wire's integer stays below
    ``2**`` its own bound.
    """

    source: np.ndarray
    shifted: np.ndarray
    lshift: np.ndarray
    negated: np.ndarray
    starts: np.ndarray
    slot: np.ndarray
    point: np.ndarray
    bits: np.ndarray


class Schedule(NamedTuple):
    """``schedule_rows``'s form of a chain: ``mat @ h`` for each matrix in
    turn on one store of ``size`` wires (``serve`` runs it).

    The store holds the input wires, then a constant 0 that every wire
    nothing writes shares, then each step's sums, one slice per step in
    order.  The outputs of the last matrix are at ``slot``, worth
    ``2**point``.  ``counts`` holds each matrix's ``(additions, shifts,
    sign_changes)``, counted from the arrays its step executes.
    """

    steps: tuple[Segments, ...]
    size: int
    slot: np.ndarray
    point: np.ndarray
    counts: tuple[tuple[int, int, int], ...]


# The point of a wire that nothing writes, which always holds 0: far above
# any point a chain reaches (each matrix moves one by at most 64), and an
# exponent added to it cannot overflow int64.
UNWRITTEN = 1 << 62


def shift_add(x: np.ndarray, seg: Segments) -> np.ndarray:
    """The sums of ``seg`` from the input wire vector ``x``, an object
    array of Python ints: gather, shift the shifted terms, negate the
    negated ones and sum each segment in order (``np.add.reduceat``)."""
    terms = x[seg.source]
    terms[seg.shifted] <<= seg.lshift
    terms[seg.negated] = -terms[seg.negated]
    return np.add.reduceat(terms, seg.starts)


def run(x: np.ndarray, steps, point) -> tuple[np.ndarray, np.ndarray]:
    """The integers and binary points of the last matrix's outputs when
    ``steps`` (``walk``'s segments) run on the input wires ``x``, an object
    array of Python ints at the points ``point`` that ``walk`` started
    from; an output that no entry writes is 0 at ``UNWRITTEN``."""
    h, slot, point = np.append(x, 0), np.arange(len(x)), np.asarray(point)
    for seg in steps:
        h = shift_add(h, seg)
        slot, point = seg.slot, seg.point
    return h[slot], point


def serve(x: list, sched: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """The integers and binary points of the last matrix's outputs when
    ``sched`` runs on the input wires ``x``, Python ints at point 0: each
    step's sums go to the next slice of the store."""
    store = np.empty(sched.size, dtype=object)
    lo = len(x) + 1
    store[:lo] = x + [0]
    for seg in sched.steps:
        hi = lo + len(seg.starts)
        store[lo:hi] = shift_add(store, seg)
        lo = hi
    return store[sched.slot], sched.point


def _sums(read, bits, exp, lengths):
    """Static points of consecutive sums of ``lengths`` (all positive)
    terms, term ``t`` worth ``2**exp[t]`` times a wire at point
    ``read[t]`` whose integer has at most ``bits[t]`` bits.

    Returns each sum's first term, point ``P = min(exp[t] + read[t])``
    and bound on its bits, and each term's left shift ``exp[t] + read[t]
    - P >= 0``, so at least one term per sum is not shifted at all.  A
    term on an unwritten wire (at ``UNWRITTEN``, 0 bits) is not shifted
    and does not lower its sum's point; a sum of such terms alone is
    unwritten too.  ``m`` terms below ``2**b`` sum below ``m * 2**b``, so
    a sum of ``m`` terms gets ``max(bits[t] + shift[t]) + (m -
    1).bit_length()`` bits.
    """
    starts = np.cumsum(lengths) - lengths
    written = read != UNWRITTEN
    at = np.where(written, exp + read, UNWRITTEN)
    low = np.minimum.reduceat(at, starts)
    shift = np.where(written, at - np.repeat(low, lengths), 0)
    top = np.maximum.reduceat(bits + shift, starts)
    # (m - 1).bit_length() is frexp's exponent, exact below 2**53
    grown = np.where(low == UNWRITTEN, 0, top + np.frexp(lengths - 1)[1])
    return starts, low, shift, grown


def _wires(n, filled, low, grown):
    """Points and bounds of ``n`` outputs, of which ``filled`` are sums at
    the points ``low`` with the bounds ``grown`` and the rest unwritten."""
    point = np.full(n, UNWRITTEN, dtype=np.int64)
    point[filled] = low
    bits = np.zeros(n, dtype=np.int64)
    bits[filled] = grown
    return point, bits


def walk(mats, point, bits):
    """Yield the executable ``Segments`` of ``h @ mat`` for each
    ``Pow2Matrix`` ``mat`` of ``mats`` in turn, the outputs of one the
    inputs of the next, from input wires at the binary points ``point``
    whose integers have at most ``bits`` bits (``_sums`` sets each
    column's point and bound).  The first input vector holds those wires
    in order, then a constant 0; each later one holds the nonempty columns
    of the matrix before, one segment of its stored entries each, in
    stored order, then a constant 0, which the last term reads and alone
    makes, and which each empty column is at.
    """
    point = np.asarray(point, dtype=np.int64)
    bits = np.asarray(bits, dtype=np.int64)
    slot, zero = np.arange(len(point)), len(point)
    for mat in mats:
        filled = np.flatnonzero(mat.col_len)
        starts, low, shift, grown = _sums(point[mat.row], bits[mat.row],
                                          mat.exp, mat.col_len[filled])
        slot_out = np.full(mat.cols, len(filled))
        slot_out[filled] = np.arange(len(filled))
        shifted = np.flatnonzero(shift)
        seg = Segments(*map(_read_only, (
            np.append(slot[mat.row], zero), shifted,
            shift[shifted].astype(object), np.flatnonzero(mat.negative),
            np.append(starts, mat.nnz), slot_out,
            *_wires(mat.cols, filled, low, grown))))
        yield seg
        slot, zero, point, bits = seg.slot, len(filled), seg.point, seg.bits


def schedule_rows(mats, width: int) -> Schedule:
    """The ``Schedule`` of ``mat @ h`` for each ``Pow2Matrix`` ``mat`` of
    ``mats`` in turn, from ``width`` input wires at point 0 (a wire's
    ``bits`` is its growth over the inputs' widest integer).

    Each matrix is summed by rows, straight from its column-major arrays:
    one stable argsort by row puts each nonempty row's entries together,
    in column order, and ``_sums`` sets each row's point and bound.  A row
    of one unnegated entry is an alias of its input: it stays at the
    input's store position, at the point ``_sums`` gives it, and costs no
    integer work.  Only the other nonempty rows are executed, and their
    sums fill the step's slice of the store; an empty row is at the
    constant 0.  Each matrix counts its ``(additions, shifts,
    sign_changes)`` from the step's arrays, an alias as its one entry:
    ``m - 1`` additions per nonempty column of ``m`` entries (the cost
    model's convention), one shift per entry and one sign change per
    negated one.
    """
    point = np.zeros(width, dtype=np.int64)
    bits = np.zeros(width, dtype=np.int64)
    slot, size = np.arange(width), width + 1
    steps, counts = [], []
    for mat in mats:
        order = np.argsort(mat.row, kind="stable")
        col, negative = mat.col[order], mat.negative[order]
        lengths = np.bincount(mat.row, minlength=mat.rows)
        filled = np.flatnonzero(lengths)
        lengths = lengths[filled]
        starts, low, shift, grown = _sums(point[col], bits[col],
                                          mat.exp[order], lengths)
        source = slot[col]
        alias = (lengths == 1) & ~negative[starts]
        summed = ~alias
        slot_out = np.full(mat.rows, width)
        slot_out[filled] = np.where(alias, source[starts],
                                    size - 1 + np.cumsum(summed))
        run_lengths = lengths[summed]
        kept = np.repeat(summed, lengths)
        shift = shift[kept]
        shifted = np.flatnonzero(shift)
        seg = Segments(*map(_read_only, (
            source[kept], shifted, shift[shifted].astype(object),
            np.flatnonzero(negative[kept]),
            np.cumsum(run_lengths) - run_lengths, slot_out,
            *_wires(mat.rows, filled, low, grown))))
        terms = len(seg.source) + int(np.count_nonzero(alias))
        counts.append((terms - int(np.count_nonzero(mat.col_len)), terms,
                       len(seg.negated)))
        steps.append(seg)
        size += len(run_lengths)
        slot, point, bits = seg.slot, seg.point, seg.bits
    return Schedule(tuple(steps), size, slot, point, tuple(counts))


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
        writes it, joined from cached pieces with no integer formatted.

        Entry ``t`` is two pieces: its row, ``,[r,`` (``,[[r,`` if it opens
        its column), and its coefficient, ``s,e]`` (``s,e]]`` if it closes
        its column); an empty column is ``,[]``.  One pass computes every
        piece's index into ``_pieces(rows)``, one gather fetches them, and
        one join writes the text, with the first piece's comma made the
        opening bracket and the closing one put after the last piece.  A
        matrix with fewer entries than rows gets a table of the rows it
        uses instead, so that writing it costs its entries, not its rows.
        """
        if not self.cols:
            return "[]"
        first, filled = self.first, self.col_len > 0
        if self.row.size >= self.rows:
            table, rows = _pieces(self.rows), self.row.astype(np.intp)
            n_rows = self.rows
        else:
            # fewer entries than rows (a plan's matrices have K rows and at
            # least K entries): pieces for the rows in use alone, uncached
            used, rows = np.unique(self.row, return_inverse=True)
            table, n_rows = _table(used.tolist()), len(used)
        rows = 2 * rows
        rows[first[filled]] += 1
        coefs = 2 * (n_rows + _EXPONENTS * self.negative
                     + (self.exp - EXP_MIN))
        coefs[(first + self.col_len - 1)[filled]] += 1
        parts = table[np.insert(np.stack([rows, coefs], axis=1).ravel(),
                                2 * first[~filled], len(table) - 1)]
        parts[0] = "[" + parts[0][1:]
        parts[-1] += "]"
        return "".join(parts.tolist())

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
            if not set(map(len, chain.from_iterable(records))) <= {3}:
                raise ValueError("an entry is not a triple")
            leaves = array("q", list(chain.from_iterable(
                chain.from_iterable(records))))
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


_EXPONENTS = EXP_MAX - EXP_MIN + 1
# the coefficient pieces, ``s,e]`` at ``2 * (_EXPONENTS * negative + exp -
# EXP_MIN)`` and ``s,e]]``, which closes its column, just after
_SIGN_EXP = [f"{s},{e}]{']' * closes}" for s in (1, -1)
             for e in range(EXP_MIN, EXP_MAX + 1) for closes in (0, 1)]


@functools.lru_cache(maxsize=1)
def _pieces(rows: int) -> np.ndarray:
    """``to_json``'s pieces for a matrix of ``rows`` rows, ``_table(range(
    rows))``.  Only the last row count's table is kept, which serves every
    matrix of a plan (they all have ``K`` rows)."""
    return _table(range(rows))


def _table(rows) -> np.ndarray:
    """``to_json``'s pieces for the row indices ``rows``, as an object
    array: the ``i``-th row's ``,[r,`` at ``2 * i`` and ``,[[r,``, which
    opens its column, just after; then ``_SIGN_EXP`` and, last, an empty
    column's ``,[]``."""
    return _read_only(np.array([f",{'[' * (1 + opens)}{r},"
                                for r in rows for opens in (0, 1)]
                               + _SIGN_EXP + [",[]"], dtype=object))


def advance_effective(eff: np.ndarray, stage: Pow2Matrix) -> np.ndarray:
    """Return ``eff @ stage`` exploiting the stage's sparsity.

    ``eff`` is a dense float matrix with as many columns as ``stage`` has
    rows; used to roll the effective codebook forward one wiring stage.
    Each output column adds its scaled codebook columns to zero one after
    another in stored order, one array pass per position in the column, so
    the result equals a per-entry loop bit for bit, signed zeros included
    (``np.add.reduceat`` adds in another order).  A position that every
    column reaches adds to the whole output at once; only the positions
    beyond the shortest column gather and scatter the columns that reach
    them, which halved the time of a 16x1024 Table-1 stage.
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
        term = eff[:, stage.row[t]] * coef[t]
        if has.all():
            out += term
        else:
            out[:, has] += term
    return out
