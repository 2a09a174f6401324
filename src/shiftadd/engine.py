"""Shift-add execution of plans on exact dyadic vectors.

Every scalar operation is a left shift, a sign flip, or an addition of
integers, so the output equals the exact reconstruction applied to the
input bit for bit.  The input is aligned once (``pot.align``) into a numpy
object array of Python ints over one exponent ``e``.  The plan's matrix
chain, the one exact reconstruction walks, then runs last to first on
static binary points, as a hardware build wires it: every wire ``i`` holds
an integer worth ``2**(e + P_i)``, with ``P_i`` fixed by the plan alone
(``DecompositionPlan.segments``, built by ``pow2matrix.walk`` on first use
and kept with the plan).  ``M @ h`` runs as ``(h @ M.T).T``: each matrix is
one ``pow2matrix.shift_add`` over the columns of its transpose, that is its
rows (``pow2matrix.run`` runs them all): gather the input wire of every
stored coefficient in row order, shift only the terms above their row's
point (each row's lowest-weight term is never shifted), negate the negative
ones, and sum each nonempty row's segment (``np.add.reduceat``) into a wire
vector that stores the nonempty rows and one constant 0 for the others.
The codebook's terminal follows: the mailman multiply, on the wires
aligned to their lowest point, or the ``[I 0]`` selector that keeps the
first ``n_rows`` wires at their own points.  Output ``Dyadic`` values are
built once, at the end.

Each matrix reports its ``(additions, shifts, sign_changes)``, counted
from the arrays the engine executes (one shift per stored nonzero, the
cost model's count, one sign change per negative one), and
``CostReport.over_chain`` sums them with the terminal's additions as
``plan.cost_of`` sums ``op_counts``.  Additions follow the cost model's
convention: ``m - 1`` to combine a column's ``m`` terms, the cost of
``h^T W``.  ``W @ h`` as the engine runs it sums row segments instead,
``nnz - (nonempty rows)`` pairwise additions per matrix, which is
``W.transpose().op_counts()[0]``, so the two agree only where a matrix has
as many nonempty rows as nonempty columns (on the 16x256 plan of the
deploy benchmark, 10,496 counted against 10,799 executed).  The counters
do not depend on the data and must match what ``plan.cost_of`` counts
without running anything.
"""

from __future__ import annotations

import math

import numpy as np

from .codebooks import mailman_apply
from .errors import DimensionError, EngineError
from .plan import CostReport, DecompositionPlan
from .pot import Dyadic, align, pow2_round_array
from .pow2matrix import UNWRITTEN, Pow2Matrix, Segments, run


def _counts(mat: Pow2Matrix, seg: Segments) -> tuple[int, int, int]:
    """``(additions, shifts, sign_changes)`` of ``mat`` as the engine runs
    it, counted from ``seg``, the arrays it executes, not from
    ``op_counts()``; additions in the ``m - 1`` per column convention (see
    the module docstring).  The last term only carries the constant 0."""
    terms = len(seg.source) - 1
    return (terms - int(np.count_nonzero(mat.col_len)), terms,
            len(seg.negated))


def apply(plan: DecompositionPlan, x) -> tuple[list[Dyadic], CostReport]:
    """Evaluate ``reconstruct(plan) @ x`` exactly by shifts and additions.

    The plan's matrix chain (``DecompositionPlan.chain``) is applied last
    to first, the stages and then the codebook's stored factors, followed
    by the codebook's terminal: the fast mailman multiply, or the free
    ``[I 0]`` selector.  Plans over the Gaussian analysis codebook cannot
    be executed this way and raise ``EngineError``.
    """
    x = list(x)
    if len(x) != plan.n_cols:
        raise DimensionError(
            f"input length {len(x)} does not match plan width {plan.n_cols}")
    for v in x:
        if not isinstance(v, Dyadic):
            raise TypeError(f"engine inputs must be Dyadic, got {type(v)!r}")
    if not plan.codebook.is_shift_add:
        raise EngineError(
            "gaussian codebooks are analysis-only and cannot be applied by "
            "shifts and additions")

    ints, e = align(x)
    h, point = run(np.array(ints, dtype=object), plan.segments,
                   np.zeros(len(ints), dtype=np.int64))
    cb = plan.codebook
    if cb.kind == "mailman":
        low = int(point.min())  # an unwritten wire holds 0 and stays put
        h <<= np.where(point == UNWRITTEN, 0, point - low).astype(object)
        y, terminal = mailman_apply(cb.n_rows, h.tolist())
        points = [low] * cb.n_rows
    else:  # implicit [I 0] selector
        y, terminal = h[:cb.n_rows].tolist(), 0
        points = point[:cb.n_rows].tolist()
    counts = [_counts(mat, seg)
              for mat, seg in zip(plan.chain, reversed(plan.segments))]

    return ([Dyadic(v, e + p) for v, p in zip(y, points)],
            CostReport.over_chain(plan, terminal, counts))


# ---------------------------------------------------------------------------
# fixed-point baselines
# ---------------------------------------------------------------------------

def _check_baseline_args(target, x) -> tuple[np.ndarray, list[Dyadic]]:
    tgt = np.asarray(target, dtype=np.float64)
    if tgt.ndim != 2:
        raise DimensionError("baseline target must be a matrix")
    if np.max(np.abs(tgt), initial=0.0) > 1.0:
        raise ValueError("baseline entries must lie in [-1, 1]")
    x = list(x)
    if len(x) != tgt.shape[1]:
        raise DimensionError(
            f"input length {len(x)} does not match target width "
            f"{tgt.shape[1]}")
    return tgt, x


def _baseline_result(m_int: np.ndarray, scale_exp: int, terms: np.ndarray,
                     negative: np.ndarray,
                     x: list[Dyadic]) -> tuple[list[Dyadic], CostReport]:
    """The exact product ``(m_int @ x) * 2**scale_exp`` of an integer
    matrix, and its cost when entry ``(i, j)`` is formed from
    ``terms[i, j]`` power-of-two terms, ``negative[i, j]`` of them negative.

    One shift per term.  An entry of ``m >= 1`` terms costs ``m - 1``
    internal additions; combining the nonzero entries of a row costs one
    addition per entry beyond the first.  Zero terms cost nothing.
    """
    internal = int(np.sum(np.maximum(terms - 1, 0)))
    row_nnz = np.sum(terms > 0, axis=1)
    additions = internal + int(np.sum(np.maximum(row_nnz - 1, 0)))
    aligned, e_base = align(x)
    sums = m_int.astype(object) @ np.array(aligned, dtype=object)
    y = [Dyadic(int(s), e_base + scale_exp) for s in sums]
    entries = terms.size
    return y, CostReport(additions, int(np.sum(terms)), int(np.sum(negative)),
                         additions / entries if entries else 0.0, ())


def baseline_apply(target, q: int, x) -> tuple[list[Dyadic], CostReport]:
    """Sign-magnitude fixed-point reference: quantize every entry to ``q``
    bits (sign plus ``q - 1`` fractional) and evaluate by shift-add.

    Uniform entries at ``q = 16`` need about 7.5 additions per entry: one
    per set magnitude bit, with the per-entry and across-row accumulation
    bookkeeping cancelling to ``sum(bits) - rows``.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > 62:
        raise ValueError("baseline supports q up to 62 bits")
    tgt, x = _check_baseline_args(target, x)
    scale = q - 1
    # ties away from zero, exactly: floor(mag + 0.5) would round mag + 0.5
    # to even once mag >= 2**52, while mag - floor(mag) is exact
    mag = np.abs(tgt) * math.ldexp(1.0, scale)
    m_int = np.floor(mag)
    m_int = (np.sign(tgt) * (m_int + (mag - m_int >= 0.5))).astype(np.int64)
    bits = np.bitwise_count(np.abs(m_int).astype(np.uint64)).astype(np.int64)
    return _baseline_result(m_int, -scale, bits, np.where(m_int < 0, bits, 0),
                            x)


def csd_baseline_apply(target, c_per_entry: int, x,
                       target_mse: float | None = None,
                       max_terms: int = 64) -> tuple[list[Dyadic], CostReport]:
    """Signed-digit reference: encode every entry greedily with at most
    ``c_per_entry`` power-of-two terms and evaluate exactly.

    With ``target_mse`` set, each entry instead keeps adding terms until its
    squared error is at most that value (or ``max_terms`` is hit), the
    adaptive analogue of a fixed bit width.
    """
    if c_per_entry < 0:
        raise ValueError("c_per_entry must be >= 0")
    tgt, x = _check_baseline_args(target, x)
    r = tgt.copy()
    terms = np.zeros(tgt.shape, dtype=np.int64)
    negative = np.zeros(tgt.shape, dtype=np.int64)
    for _ in range(c_per_entry if target_mse is None else max_terms):
        live = True if target_mse is None else r * r > target_mse
        if not np.any(live):
            break
        v = np.where(live, pow2_round_array(r, e_min=None, e_max=None), 0.0)
        terms += v != 0.0
        negative += v < 0.0
        r -= v
    approx = tgt - r  # both residual chain and difference are exact
    ints, e = align([Dyadic.from_float(a) for a in approx.ravel().tolist()])
    return _baseline_result(np.array(ints, dtype=object).reshape(tgt.shape),
                            e, terms, negative, x)
