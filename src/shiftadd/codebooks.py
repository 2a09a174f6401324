"""Codebook matrices: binary mailman, two-sparse, self-designing.

A codebook is the cheap left factor of the decomposition: its columns are
the building vectors that wiring stages select and scale.  Every kind has
entries that are zero or signed powers of two, so it is applied with
additions and bit shifts alone.  The i.i.d. Gaussian matrix of the paper's
error analysis (``gaussian_build``) is no codebook kind: it serves the
analysis and the auxiliary target a self-designing codebook is fitted to.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, PlanFormatError
from .pow2matrix import UNWRITTEN, Pow2Matrix, advance_effective

KINDS = ("mailman", "two-sparse", "self-designing")

MAILMAN_MAX_ROWS = 24

# The largest exponent a two-sparse column may use; far beyond any shape
# whose codebook fits in memory.
TWO_SPARSE_MAX_LEVEL = 64


# ---------------------------------------------------------------------------
# binary mailman
# ---------------------------------------------------------------------------

def mailman_build(n_rows: int) -> Pow2Matrix:
    """The ``N x 2**N`` binary matrix whose column ``k`` spells ``k - 1``.

    Row ``n`` holds the n-th least significant bit, the digit order implied
    by the halving recursion that makes the fast multiply work.  The entries
    are read from the bits of each column index.
    """
    _check_mailman_rows(n_rows)
    index = np.arange(1 << n_rows, dtype=np.int32)
    rows = np.arange(n_rows, dtype=np.int32)
    bits = (index[:, None] >> rows & 1).astype(bool)
    row = np.broadcast_to(rows, bits.shape)[bits]
    return Pow2Matrix(n_rows, 1 << n_rows, row, np.zeros(len(row), bool),
                      np.zeros(len(row), np.int16), np.bitwise_count(index))


def mailman_additions(n_rows: int) -> int:
    """Addition count of the fast multiply: c(1) = 0, c(N) = c(N-1) + 2**N - 1."""
    _check_mailman_rows(n_rows)
    c = 0
    for n in range(2, n_rows + 1):
        c += (1 << n) - 1
    return c


def mailman_apply(n_rows: int, h) -> tuple[list, int]:
    """Multiply the mailman matrix by ``h`` exactly, returning the result
    and the number of additions performed.  The entries of ``h`` may be
    any exact numbers: the engine passes Python ints over one shared
    exponent.

    Splits ``h`` into halves, recurses on their sum, and finishes the last
    output component by summing the second half; the count telescopes to
    ``mailman_additions(n_rows)`` and stays below ``2 * 2**n_rows``.
    """
    _check_mailman_rows(n_rows)
    h = list(h)
    if len(h) != 1 << n_rows:
        raise DimensionError(
            f"mailman with {n_rows} rows needs a vector of length "
            f"{1 << n_rows}, got {len(h)}")

    def rec(n: int, vec: list) -> tuple[list, int]:
        if n == 1:
            return [vec[1]], 0
        half = len(vec) // 2
        h2 = vec[half:]
        summed = [a + b for a, b in zip(vec[:half], h2)]
        out, adds = rec(n - 1, summed)
        tail = h2[0]
        for v in h2[1:]:
            tail = tail + v
        out.append(tail)
        return out, adds + 2 * half - 1

    return rec(n_rows, h)


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

@dataclass(frozen=True)
class CodebookDescriptor:
    """Everything needed to rebuild a codebook's effective matrix.

    A mailman or two-sparse codebook is built from its kind and shape
    alone; a self-designing one stores its design.  ``factors`` holds the
    stored power-of-two factors behind an implicit leading ``[I 0]``
    selector: the pair ``(B1, B2)`` for self-designing, given, and the
    enumerated matrix for two-sparse (whose selector is the identity),
    derived here; mailman has none.  Only a self-designing codebook takes
    ``factors`` or a ``stage_sparsity`` other than 1.
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

    @property
    def lead(self) -> tuple[Pow2Matrix, ...]:
        """The matrices that lead exact reconstruction, ahead of the stored
        factors, in place of the terminal multiply: the mailman matrix, or
        none after the ``[I 0]`` selector."""
        return (mailman_build(self.n_rows),) if self.kind == "mailman" else ()

    @property
    def terminal_additions(self) -> int:
        """Additions of the terminal multiply that leads the plan's chain:
        the mailman recursion, none for the ``[I 0]`` selector."""
        if self.kind == "mailman":
            return mailman_additions(self.n_rows)
        return 0

    def terminal(self, h: np.ndarray,
                 point: np.ndarray) -> tuple[list, list, int]:
        """The engine's last step on the wires ``h`` (Python ints, wire
        ``i`` worth ``2**point[i]`` times the input's unit): the outputs,
        their points and the additions performed.  Mailman multiplies by
        ``mailman_apply`` on the wires aligned to their lowest point, all
        outputs at that point; the ``[I 0]`` selector keeps the first
        ``n_rows`` wires at their own points."""
        n = self.n_rows
        if self.kind != "mailman":
            return h[:n].tolist(), point[:n].tolist(), 0
        low = int(point.min())  # an unwritten wire holds 0 and stays put
        h = h << np.where(point == UNWRITTEN, 0, point - low).astype(object)
        y, additions = mailman_apply(n, h.tolist())
        return y, [low] * n, additions

    def dense(self) -> np.ndarray:
        """Effective real matrix of the codebook: the mailman matrix, or
        the stored factors rolled forward from the ``[I 0]`` selector."""
        if self.kind == "mailman":
            return mailman_build(self.n_rows).dense()
        eff = np.eye(self.n_rows, self.factors[0].rows)
        for factor in self.factors:
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
        n, k = operator.index(d["rows"]), operator.index(d["cols"])
        # refused before anything is built, so a short document cannot make
        # the loader or dense() exhaust memory
        max_k = 1 << MAILMAN_MAX_ROWS
        if k > max_k or n * k > MAILMAN_MAX_ROWS * max_k:
            raise PlanFormatError(
                f"a {n}x{k} codebook exceeds the largest, the "
                f"{MAILMAN_MAX_ROWS}x{max_k} mailman codebook")
        return cls(d["kind"], n, k,
                   operator.index(d.get("stage_sparsity", 1)),
                   tuple(Pow2Matrix.from_records(k, rec)
                         for rec in d.get("factors", ())))


def self_design_build(aux_target: np.ndarray,
                      stage_sparsity: int = 1) -> CodebookDescriptor:
    """Let the codebook design itself against an auxiliary target.

    ``B = B0 B1 B2`` where ``B0 = [I 0]`` and ``B1, B2`` are the first two
    wiring stages of a decomposition of the auxiliary target over ``B0``
    (``wiring.fit_stages``), with ``1 + stage_sparsity`` nonzeros per
    column.
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

    Only the self-designing kind reads the other arguments: ``aux`` picks
    its auxiliary target, ``"target"`` for ``target`` itself or
    ``"gaussian"`` for a Gaussian matrix drawn from ``seed``.
    """
    if kind != "self-designing":
        return CodebookDescriptor(kind, n_rows, n_cols)
    if aux == "target":
        if target is None:
            raise ValueError("aux='target' requires a target matrix")
        aux_mat = np.asarray(target, dtype=np.float64)
    elif aux == "gaussian":
        aux_mat = gaussian_build(n_rows, n_cols, seed)
    else:
        raise ValueError(f"unknown aux choice {aux!r}")
    return self_design_build(aux_mat, stage_sparsity)
