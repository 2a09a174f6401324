"""Codebook matrices: binary mailman, two-sparse, self-designing.

A codebook is the cheap left factor of the decomposition: its columns are
the building vectors that wiring stages select and scale.  Every kind has
entries that are zero or signed powers of two, so it is applied with
additions and bit shifts alone.  The i.i.d. Gaussian matrix of the paper's
error analysis (``gaussian_build``) is no codebook kind: it serves the
analysis and the auxiliary target a self-designing codebook is fitted to.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, PlanFormatError
from .pow2matrix import Pow2Matrix, advance_effective

KINDS = ("mailman", "two-sparse", "self-designing")

MAILMAN_MAX_ROWS = 24

# The largest exponent a two-sparse column may use; far beyond any shape
# whose codebook fits in memory.
TWO_SPARSE_MAX_LEVEL = 64


# ---------------------------------------------------------------------------
# binary mailman
# ---------------------------------------------------------------------------

def mailman_factors(n_rows: int) -> tuple[Pow2Matrix, ...]:
    """The ``n_rows`` factors, each ``K x K`` with ``K = 2**n_rows``, whose
    product rolled forward from the ``[I 0]`` selector is the mailman
    matrix: the ``N x K`` bit matrix whose column ``k`` spells ``k``, row
    ``n`` holding its n-th least significant bit.

    Factor 0 puts unit wire ``i`` at column ``2**i``.  Factor ``t`` builds
    each column ``j`` between ``2**t`` and ``2**(t+1)`` as column ``j -
    2**t`` plus column ``2**t``, and passes columns 1 to ``2**t`` and the
    higher unit columns through.  Each column beyond the units so costs
    one addition, ``2**N - N - 1`` in all, and the factors hold at most
    ``3 * 2**N + N**2`` entries, every one ``+1``.
    """
    _check_mailman_rows(n_rows)
    k = 1 << n_rows
    units = 1 << np.arange(n_rows)

    def factor(row, col_len):
        return Pow2Matrix(k, k, row, np.zeros(len(row), bool),
                          np.zeros(len(row), np.int16), col_len)

    col_len = np.zeros(k, dtype=np.int32)
    col_len[units] = 1
    factors = [factor(np.arange(n_rows), col_len)]
    for t in range(1, n_rows):
        half = 1 << t
        low = np.arange(1, half)
        col_len = np.zeros(k, dtype=np.int32)
        col_len[1:2 * half] = 1
        col_len[half + 1:2 * half] = 2
        col_len[units[t + 1:]] = 1
        factors.append(factor(np.concatenate([
            np.arange(1, half + 1),
            np.stack([low, np.full_like(low, half)], axis=1).ravel(),
            units[t + 1:]]), col_len))
    return tuple(factors)


def _check_mailman_rows(n_rows: int) -> None:
    if not 1 <= n_rows <= MAILMAN_MAX_ROWS:
        raise ValueError(
            f"mailman rows must be in [1, {MAILMAN_MAX_ROWS}], got {n_rows}")


# ---------------------------------------------------------------------------
# two-sparse
# ---------------------------------------------------------------------------

def two_sparse_build(n_rows: int, n_cols: int) -> Pow2Matrix:
    """Columns with one or two power-of-two nonzeros, no two collinear.

    Enumeration order: the unit columns first, then two-sparse patterns by
    increasing magnitude level ``m`` (the largest exponent used), row pair,
    and sign pattern.  Level ``m`` contributes the ratios ``+-2**m`` and
    ``+-2**-m`` realized with non-negative exponents only, so magnitudes
    grow only as far as ``n_cols`` demands.
    """
    if n_rows < 1:
        raise DimensionError("two-sparse codebook needs at least one row")
    units = min(n_rows, n_cols)
    entries = [(i, 1, 0) for i in range(units)]
    for pair in itertools.islice(_two_sparse_pairs(n_rows), n_cols - units):
        entries += pair
    if len(entries) < 2 * n_cols - units:
        raise ValueError(
            f"cannot enumerate {n_cols} non-collinear columns over {n_rows} "
            f"rows within magnitude level {TWO_SPARSE_MAX_LEVEL}")
    row, sign, exp = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    return Pow2Matrix(n_rows, n_cols, row, sign < 0, exp,
                      np.array([1] * units + [2] * (n_cols - units)))


def _two_sparse_pairs(n_rows: int):
    """The two-sparse columns in enumeration order, as pairs of
    ``(row, sign, exp)`` entries."""
    for level in range(TWO_SPARSE_MAX_LEVEL + 1):
        if level == 0:
            patterns = [((1, 0), (1, 0)), ((1, 0), (-1, 0))]
        else:
            patterns = [((1, 0), (1, level)), ((1, 0), (-1, level)),
                        ((1, level), (1, 0)), ((1, level), (-1, 0))]
        for i, j in itertools.combinations(range(n_rows), 2):
            for (si, ei), (sj, ej) in patterns:
                yield (i, si, ei), (j, sj, ej)


# ---------------------------------------------------------------------------
# gaussian (analysis and auxiliary targets)
# ---------------------------------------------------------------------------

def gaussian_build(n_rows: int, n_cols: int, seed: int) -> np.ndarray:
    """IID standard-normal matrix from a seeded PCG64 generator."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_rows, n_cols))


# ---------------------------------------------------------------------------
# descriptor
# ---------------------------------------------------------------------------

def integer_field(name: str, value) -> int:
    """The integer field ``name`` of a plan document as an int
    (``operator.index``), refusing JSON's ``true`` and ``false``, which
    Python reads as ints, with a ``PlanFormatError`` naming the field."""
    if isinstance(value, bool):
        raise PlanFormatError(f"plan field {name} must be an integer, got "
                              f"{value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class CodebookDescriptor:
    """Everything needed to rebuild a codebook's effective matrix.

    A mailman or two-sparse codebook is built from its kind and shape
    alone; a self-designing one stores its design.  Every kind is a chain
    of power-of-two factors (``chain``) behind an implicit leading ``[I
    0]`` selector.  ``factors`` holds the stored ones: the pair ``(B1,
    B2)`` for self-designing, given, and the enumerated matrix for
    two-sparse (whose selector is the identity), derived here; mailman
    stores none, and derives its chain on first use.  Only a
    self-designing codebook takes ``factors`` or a ``stage_sparsity``
    other than 1.
    """

    kind: str
    n_rows: int
    n_cols: int
    stage_sparsity: int = 1
    factors: tuple[Pow2Matrix, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown codebook kind {self.kind!r}")
        if self.n_rows < 1 or self.n_cols < 1:
            raise DimensionError(f"empty {self.n_rows}x{self.n_cols} codebook")
        if self.kind != "self-designing":
            # the file records only the shape: anything more would not
            # survive a round trip
            if self.factors:
                raise ValueError(f"a {self.kind} codebook is built from its "
                                 f"shape and takes no factors")
            if self.stage_sparsity != 1:
                raise ValueError(f"a {self.kind} codebook takes no "
                                 f"stage_sparsity, got {self.stage_sparsity}")
        if self.kind == "mailman":
            _check_mailman_rows(self.n_rows)  # before 1 << n_rows
            if self.n_cols != 1 << self.n_rows:
                raise DimensionError(
                    f"mailman codebook needs K = 2**N, got {self.n_rows}x"
                    f"{self.n_cols}")
        elif self.kind == "two-sparse":
            object.__setattr__(self, "factors",
                               (two_sparse_build(self.n_rows, self.n_cols),))
        else:
            if len(self.factors) != 2:
                raise ValueError("self-designing descriptor stores B1 and B2")
            if not 1 <= self.n_rows <= self.n_cols:
                raise DimensionError(
                    f"self-designing codebook needs 1 <= N <= K, got "
                    f"{self.n_rows}x{self.n_cols}")
            for f in self.factors:
                if f.rows != self.n_cols or f.cols != self.n_cols:
                    raise DimensionError("self-designing factors must be KxK")
            if self.stage_sparsity < 0:
                raise ValueError(f"stage_sparsity must be >= 0, got "
                                 f"{self.stage_sparsity}")

    @functools.cached_property
    def chain(self) -> tuple[Pow2Matrix, ...]:
        """The factors behind the ``[I 0]`` selector, in order: the stored
        ones, or for mailman those ``mailman_factors`` derives, built on
        first use and kept with the descriptor."""
        if self.kind == "mailman":
            return mailman_factors(self.n_rows)
        return self.factors

    def dense(self) -> np.ndarray:
        """Effective real matrix of the codebook: the ``[I 0]`` selector
        rolled forward through every factor of ``chain``."""
        eff = np.eye(self.n_rows, self.chain[0].rows)
        for factor in self.chain:
            eff = advance_effective(eff, factor)
        return eff

    def to_dict(self, records=Pow2Matrix.to_records) -> dict:
        """The file's fields; ``records`` writes each stored factor."""
        d = {"kind": self.kind, "rows": self.n_rows, "cols": self.n_cols}
        if self.kind == "self-designing":
            d["stage_sparsity"] = self.stage_sparsity
            d["factors"] = [records(f) for f in self.factors]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CodebookDescriptor":
        n, k = (integer_field(f"codebook {f}", d[f])
                for f in ("rows", "cols"))
        # refused before anything is built, so a short document cannot make
        # the loader or dense() exhaust memory
        max_k = 1 << MAILMAN_MAX_ROWS
        if k > max_k or n * k > MAILMAN_MAX_ROWS * max_k:
            raise PlanFormatError(
                f"a {n}x{k} codebook exceeds the largest, the "
                f"{MAILMAN_MAX_ROWS}x{max_k} mailman codebook")
        return cls(d["kind"], n, k,
                   integer_field("codebook stage_sparsity",
                                 d.get("stage_sparsity", 1)),
                   tuple(Pow2Matrix.from_records(k, rec)
                         for rec in d.get("factors", ())))


def self_design_build(aux_target: np.ndarray,
                      stage_sparsity: int = 1) -> CodebookDescriptor:
    """Let the codebook design itself against an auxiliary target.

    ``B = B0 B1 B2`` where ``B0 = [I 0]`` and ``B1, B2`` are the first two
    wiring stages of a decomposition of the auxiliary target over ``B0``
    (``wiring.fit_stages``), with ``1 + stage_sparsity`` nonzeros per
    column.  The first stage fits over the N unit columns of ``B0``; the
    second over ``B0 B1``, whose columns are sums of ``1 + stage_sparsity``
    signed powers of two on the N wires, so most are copies of another up
    to sign and a power of two: the greedy fit screens one column per
    class of copies (438 of the 1024 columns of a 16x1024 Table-1 cell).
    """
    from .wiring import fit_stages  # deferred: wiring sits above this module

    aux = np.asarray(aux_target, dtype=np.float64)
    if aux.ndim != 2:
        raise DimensionError("auxiliary target must be a matrix")
    n, k = aux.shape
    if k < n:
        raise DimensionError(
            f"self-designing codebook needs K >= N, got {n}x{k}")
    (b1, _), (b2, _) = fit_stages(aux, np.eye(n, k), [stage_sparsity] * 2)
    return CodebookDescriptor("self-designing", n, k,
                              stage_sparsity=stage_sparsity, factors=(b1, b2))


def make_codebook(kind: str, n_rows: int, n_cols: int, *, seed: int = 0,
                  target: np.ndarray | None = None,
                  aux: str = "target",
                  stage_sparsity: int = 1) -> CodebookDescriptor:
    """Build a codebook descriptor of the requested kind.

    Only the self-designing kind uses the other arguments: ``aux`` picks
    its auxiliary target, ``"target"`` for ``target`` itself or
    ``"gaussian"`` for a Gaussian matrix drawn from ``seed``.  Any other
    ``aux`` is refused for every kind.
    """
    if aux not in ("target", "gaussian"):
        raise ValueError(f"unknown aux choice {aux!r}")
    if kind != "self-designing":
        return CodebookDescriptor(kind, n_rows, n_cols)
    if aux == "gaussian":
        aux_mat = gaussian_build(n_rows, n_cols, seed)
    else:
        if target is None:
            raise ValueError("aux='target' requires a target matrix")
        aux_mat = np.asarray(target, dtype=np.float64)
    return self_design_build(aux_mat, stage_sparsity)
