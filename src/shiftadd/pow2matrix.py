"""Sparse matrices whose nonzeros are signed powers of two.

A ``Pow2Matrix`` is stored column-major as four validated integer arrays,
and every layer reads or writes them directly: the greedy fit builds them
from the weights it wrote, the plan loader reads them from the file, and
the exact engine, exact reconstruction, the effective-codebook roll-forward
``advance_effective`` and the cost accounting all run on them.
``to_records`` is the file view, and ``to_json`` writes that view's text,
byte for byte as ``json.dumps`` does, by joining cached text pieces with no
integer formatted: each entry is a row piece and a sign-and-exponent
piece, looked up in one table per row count (only the last two are kept;
a matrix with fewer entries than rows gets a table of the rows it uses).
``from_json`` is its inverse: a few numpy passes read the text's bytes
straight into the arrays, and the matrix is kept only if ``to_json``
writes that text back byte for byte.  ``from_records`` reads the nested
``[row, sign, exp]`` lists that ``json`` makes of any other spelling, and
``as_matrix`` takes either: a matrix already read, or its records.

Exact products run on the stored arrays, with every wire of a chain at a
static binary point, as a hardware build fixes it, and a static bound on
its integer's bits; only the terms above their output's point are
shifted.  ``schedule`` turns a chain into executable ``Segments``, one per
matrix, by rows (``mat @ h``, the engine) or by columns (``h @ mat``,
exact reconstruction), straight from the column-major arrays, on one
store of wires for the whole chain: a constant 0, the input wires, then
one slice of sums per matrix.  An output of one unnegated term is an
alias of its input and is not executed.  ``serve`` runs a ``Schedule``
with one shift-add kernel, ``shift_add``, per matrix, and after each
matrix drops the wires below the lowest position that a later matrix or
a final output reads.
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
    """One ``Pow2Matrix`` made executable as sums of its terms over a store
    of wires at static points.

    Term ``t`` reads store position ``source[t]``; the terms at ``shifted``
    are shifted left by ``lshift`` (Python ints, all positive), the rest
    not at all, and the terms at ``negated`` are negated; the terms from
    ``starts[j]`` to the next start sum into the ``j``-th sum.  Output
    ``r`` (a row of ``mat @ h``, a column of ``h @ mat``) is at store
    position ``slot[r]`` and holds an integer ``v`` worth ``v *
    2**point[r]`` (``UNWRITTEN`` where it is always 0), with ``|v| <
    2**bits[r]`` while each input wire's integer stays below ``2**`` its
    own bound.
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
    """``schedule``'s form of a chain: one step per matrix on one store of
    ``size`` wires (``serve`` runs it).

    The store holds a constant 0 at position 0, which every wire nothing
    writes shares, then the input wires, then each step's sums, one slice
    per step in order.  The outputs of the last matrix are at ``slot``,
    worth ``2**point``.  After step ``s`` no later step and no output reads
    a position from 1 up to ``release[s]``, a bound that never decreases,
    so those wires can be dropped.  ``counts`` holds each matrix's
    ``(additions, shifts, sign_changes)``, counted from the arrays its step
    executes.
    """

    steps: tuple[Segments, ...]
    size: int
    slot: np.ndarray
    point: np.ndarray
    release: tuple[int, ...]
    counts: tuple[tuple[int, int, int], ...]


# The point of a wire that nothing writes, which always holds 0: far above
# any point a chain reaches (each matrix moves one by at most 64), and an
# exponent added to it cannot overflow int64.
UNWRITTEN = 1 << 62


def shift_add(x: np.ndarray, seg: Segments) -> np.ndarray:
    """The sums of ``seg`` from the store ``x``, an object array of Python
    ints: gather, shift the shifted terms, negate the negated ones and sum
    each segment in order (``np.add.reduceat``)."""
    terms = x[seg.source]
    terms[seg.shifted] <<= seg.lshift
    terms[seg.negated] = -terms[seg.negated]
    return np.add.reduceat(terms, seg.starts)


def serve(x: list, sched: Schedule) -> tuple[np.ndarray, np.ndarray]:
    """The integers and binary points of the last matrix's outputs when
    ``sched`` runs on the input wires ``x``, Python ints at the points the
    schedule started from: each step's sums go to the next slice of the
    store, and the wires below its release bound, the constant 0 aside,
    are dropped."""
    store = np.empty(sched.size, dtype=object)
    lo = len(x) + 1
    store[:lo] = [0] + x
    dead = 1
    for seg, bound in zip(sched.steps, sched.release):
        hi = lo + len(seg.starts)
        store[lo:hi] = shift_add(store, seg)
        store[dead:bound] = None
        lo, dead = hi, bound
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


def schedule(mats, point, bits, by: str) -> Schedule:
    """The ``Schedule`` of each ``Pow2Matrix`` ``mat`` of ``mats`` in turn,
    the outputs of one the inputs of the next, from input wires at the
    binary points ``point`` whose integers have at most ``bits`` bits.
    ``by="rows"`` makes each output a row, ``mat @ h``; ``by="columns"``
    a column, ``h @ mat``.

    Each matrix is summed straight from its column-major arrays: by
    columns in stored order, by rows after one stable argsort by row,
    which puts each nonempty row's entries together in column order.
    ``_sums`` sets each output's point and bound.  An output of one
    unnegated entry is an alias of its input: it stays at the input's
    store position, at the point ``_sums`` gives it, and costs no integer
    work.  Only the other nonempty outputs are executed, and their sums
    fill the step's slice of the store; an empty output is at the
    constant 0.  Each step's release bound is the lowest position other
    than the constant 0 that a later step or a final output reads, capped
    at the end of its own slice.  Each matrix counts its ``(additions,
    shifts, sign_changes)`` from the step's arrays, an alias as its one
    entry: ``m - 1`` additions per nonempty column of ``m`` entries (the
    cost model's convention), one shift per entry and one sign change per
    negated one.
    """
    if by not in ("rows", "columns"):
        raise ValueError(f"by must be 'rows' or 'columns', got {by!r}")
    point = np.asarray(point, dtype=np.int64)
    bits = np.asarray(bits, dtype=np.int64)
    slot = np.arange(1, len(point) + 1)
    size = len(point) + 1
    steps, counts, ends = [], [], []
    for mat in mats:
        if by == "rows":
            order = np.argsort(mat.row, kind="stable")
            wire, lengths = mat.col[order], np.bincount(mat.row,
                                                        minlength=mat.rows)
        else:
            order, wire, lengths = slice(None), mat.row, mat.col_len
        negative = mat.negative[order]
        slot_out = np.zeros(len(lengths), dtype=np.int64)
        filled = np.flatnonzero(lengths)
        lengths = lengths[filled]
        starts, low, shift, grown = _sums(point[wire], bits[wire],
                                          mat.exp[order], lengths)
        source = slot[wire]
        alias = (lengths == 1) & ~negative[starts]
        summed = ~alias
        slot_out[filled] = np.where(alias, source[starts],
                                    size - 1 + np.cumsum(summed))
        run_lengths = lengths[summed]
        kept = np.repeat(summed, lengths)
        shift = shift[kept]
        shifted = np.flatnonzero(shift)
        point = np.full(len(slot_out), UNWRITTEN, dtype=np.int64)
        bits = np.zeros(len(slot_out), dtype=np.int64)
        point[filled], bits[filled] = low, grown
        seg = Segments(*map(_read_only, (
            source[kept], shifted, shift[shifted].astype(object),
            np.flatnonzero(negative[kept]),
            np.cumsum(run_lengths) - run_lengths, slot_out, point, bits)))
        terms = len(seg.source) + int(np.count_nonzero(alias))
        counts.append((terms - int(np.count_nonzero(mat.col_len)), terms,
                       len(seg.negated)))
        steps.append(seg)
        size += len(run_lengths)
        ends.append(size)
        slot = slot_out
    release, read = [], int(slot[slot > 0].min(initial=size))
    for seg, end in zip(reversed(steps), reversed(ends)):
        release.append(min(read, end))
        read = min(read, int(seg.source[seg.source > 0].min(initial=read)))
    return Schedule(tuple(steps), size, slot, point, tuple(release[::-1]),
                    tuple(counts))


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
            # fewer entries than rows (a plan's matrices have at least K
            # entries): pieces for the rows in use alone, uncached
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
        refused rather than truncated, and an integer beyond 64 bits too;
        JSON's ``true`` and ``false`` are refused as well) and every sign
        +-1, else ``PlanFormatError``; the constructor checks rows and
        exponents.
        """
        try:
            col_len = list(map(len, records))
            if not set(map(len, chain.from_iterable(records))) <= {3}:
                raise ValueError("an entry is not a triple")
            leaves = list(chain.from_iterable(chain.from_iterable(records)))
            if bool in set(map(type, leaves)):
                raise TypeError("true and false are not integers")
            leaves = array("q", leaves)
        except (TypeError, ValueError, OverflowError) as exc:
            raise PlanFormatError(
                f"matrix entries must be [row, sign, exp] integer triples: "
                f"{exc}") from None
        i, s, e = np.frombuffer(leaves, dtype=np.int64).reshape(-1, 3).T
        bad = np.flatnonzero((s != 1) & (s != -1))
        if bad.size:
            raise PlanFormatError(f"coefficient sign {s[bad[0]]} is not +-1")
        return cls(rows, len(col_len), i, s < 0, e,
                   np.array(col_len, dtype=np.int64))

    @classmethod
    def from_json(cls, rows: int, text: str) -> "Pow2Matrix | None":
        """Inverse of ``to_json``: the matrix whose ``to_json()`` is
        ``text`` byte for byte, else ``None``; it never raises.

        ``_json_arrays`` reads the text as ``to_json`` spells it, with no
        grammar, the validating constructor builds the matrix, and
        rendering it back is the proof that it was read right: whitespace,
        a value out of range or any other spelling renders differently, or
        is refused on the way.
        """
        arrays = _json_arrays(text)
        if arrays is None:
            return None
        try:
            mat = cls(rows, len(arrays[-1]), *arrays)
        except (TypeError, ValueError):
            return None
        return mat if mat.to_json() == text else None


def as_matrix(rows: int, value) -> Pow2Matrix:
    """``value`` if it is a matrix already read from its text, else the
    matrix of its records (``Pow2Matrix.from_records``) with ``rows``
    rows."""
    if isinstance(value, Pow2Matrix):
        return value
    return Pow2Matrix.from_records(rows, value)


def _json_arrays(text: str):
    """The arrays ``row``, ``negative``, ``exp`` and ``col_len`` that
    ``text`` spells if ``to_json`` wrote it, from a few numpy passes over
    its bytes; on other text, other arrays or ``None``.

    Each run of digits is a value, negated when a minus precedes it, and
    every three values are an entry.  A run is read from its last digit
    back, one place per pass over all runs, those still in their digits
    moving on; a run of more than 9 digits, which could leave int32, is
    ``None``.  An opening bracket followed by a digit opens an entry, any
    other one the matrix or a column, so a column's length is the number
    of entries opened before the next column.  Every array of one value
    per run but the positions the passes read is int32 or narrower, and
    the passes use comparisons, gathers and int32 arithmetic alone: a
    uint8 subtraction or a masked negation would page in numpy code (64 KB
    each) that designing and serving a plan never run.
    """
    b = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)
    digit = b <= 57
    digit &= b >= 48
    if b.size < 2 or digit[0] or digit[-1]:
        return None
    at = np.flatnonzero(digit[:-1] > digit[1:])  # each run's last digit
    if len(at) % 3:
        return None
    values = b[at].astype(np.int32)
    values -= 48
    at -= 1
    more = digit[at]
    for place in _PLACES:
        if not more.any():
            break
        digits = b[at].astype(np.int32)
        digits -= 48
        digits *= more
        digits *= place
        values += digits
        at -= more
        more &= digit[at]
    if more.any():  # a tenth digit
        return None
    values[b[at] == 45] *= -1
    row, sign, exp = values.reshape(-1, 3).T
    entry = digit[np.flatnonzero(b[:-1] == 91) + 1]
    return row, sign < 0, exp, np.add.reduceat(
        entry, np.flatnonzero(~entry)[1:], dtype=np.int32)


# the place values of a run's digits after its last, up to the ninth
_PLACES = np.array([10 ** k for k in range(1, 9)], dtype=np.int32)


_EXPONENTS = EXP_MAX - EXP_MIN + 1
# the coefficient pieces, ``s,e]`` at ``2 * (_EXPONENTS * negative + exp -
# EXP_MIN)`` and ``s,e]]``, which closes its column, just after
_SIGN_EXP = [f"{s},{e}]{']' * closes}" for s in (1, -1)
             for e in range(EXP_MIN, EXP_MAX + 1) for closes in (0, 1)]


@functools.lru_cache(maxsize=2)
def _pieces(rows: int) -> np.ndarray:
    """``to_json``'s pieces for a matrix of ``rows`` rows, ``_table(range(
    rows))``.  The last two row counts' tables are kept: a plan's matrices
    have ``K`` rows, a self-designing codebook's ``B1`` has ``N``."""
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
