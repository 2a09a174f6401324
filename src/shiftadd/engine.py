"""Shift-add execution of plans on exact dyadic vectors.

Every scalar operation is a left shift, a sign flip, or an addition of
integers, so the output equals the exact reconstruction applied to the
input bit for bit.  The input is aligned once (``pot.align``) into Python
ints over one exponent ``e``.  The plan's matrix chain, the one exact
reconstruction runs by columns, then runs last to first by rows on static
binary points, as a hardware build wires it: every wire ``i`` holds an
integer worth ``2**(e + P_i)``, with ``P_i`` fixed by the plan alone
(``DecompositionPlan.schedule``, built by ``pow2matrix.schedule`` on first
use and kept with the plan).  All wires of a vector live in one store, a
numpy object array (``pow2matrix.serve``): a constant 0 that every
unwritten wire shares, the input wires, then one slice per matrix; after
each matrix the wires below the lowest position a later matrix or an
output reads are dropped.
Each matrix ``M`` runs ``M @ h`` by rows.  A row of one unnegated entry is
an alias: it names its input's place in the store at its own point and
costs no integer work.  For the other rows one ``pow2matrix.shift_add``
gathers the input wire of every entry, shifts only the terms above their
row's point (each row's lowest-weight term is never shifted), negates the
negative ones and sums each row's segment (``np.add.reduceat``) into the
matrix's slice.  The codebook's terminal follows
(``CodebookDescriptor.terminal``): the mailman multiply, on the wires
aligned to their lowest point, or the ``[I 0]`` selector that keeps the
first ``n_rows`` wires at their own points; every codebook kind has one of
the two, so every plan that loads can be applied.  Output ``Dyadic``
values are built once, at the end.

Each matrix's ``(additions, shifts, sign_changes)`` is counted once, when
the schedule is built, from the arrays its step executes, an alias as its
one entry (one shift per stored nonzero, the cost model's count, and one
sign change per negative one); ``apply`` sums the stored triples with the
terminal's additions by ``CostReport.over_chain``, as ``plan.cost_of``
sums ``op_counts``.  Additions follow the cost model's convention: ``m -
1`` to combine a column's ``m`` terms, the cost of ``h^T W``.  ``W @ h``
as the engine runs it sums rows instead, ``nnz - (nonempty rows)``
pairwise additions per matrix, so the two agree only where a matrix has as
many nonempty rows as nonempty columns (on the 16x256 plan of the deploy
benchmark, 10,496 counted against 10,799 executed).  The counters do not
depend on the data and must match what ``plan.cost_of`` counts without
running anything.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError
from .plan import CostReport, DecompositionPlan
from .pot import Dyadic, align
from .pow2matrix import serve


def apply(plan: DecompositionPlan, x) -> tuple[list[Dyadic], CostReport]:
    """Evaluate ``reconstruct(plan) @ x`` exactly by shifts and additions.

    The plan's matrix chain (``DecompositionPlan.chain``) is applied last
    to first, the stages and then the codebook's stored factors, followed
    by the codebook's terminal: the fast mailman multiply, or the free
    ``[I 0]`` selector.
    """
    x = list(x)
    if len(x) != plan.n_cols:
        raise DimensionError(
            f"input length {len(x)} does not match plan width {plan.n_cols}")
    for v in x:
        if not isinstance(v, Dyadic):
            raise TypeError(f"engine inputs must be Dyadic, got {type(v)!r}")

    ints, e = align(x)
    schedule = plan.schedule
    h, point = serve(ints, schedule)
    y, points, terminal = plan.codebook.terminal(h, point)

    return ([Dyadic(v, e + p) for v, p in zip(y, points)],
            CostReport.over_chain(plan, terminal, schedule.counts[::-1]))


# ---------------------------------------------------------------------------
# fixed-point baseline
# ---------------------------------------------------------------------------

def baseline_apply(target, q: int, x) -> tuple[list[Dyadic], CostReport]:
    """Sign-magnitude fixed-point reference: quantize every entry to ``q``
    bits (sign plus ``q - 1`` fractional) and evaluate by shift-add.

    One shift per set magnitude bit.  An entry of ``m >= 1`` set bits costs
    ``m - 1`` internal additions; combining the nonzero entries of a row
    costs one addition per entry beyond the first.  Zero entries cost
    nothing.  Uniform entries at ``q = 16`` need about 7.5 additions per
    entry: one per set magnitude bit, with the per-entry and across-row
    accumulation bookkeeping cancelling to ``sum(bits) - rows``.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if q > 62:
        raise ValueError("baseline supports q up to 62 bits")
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
    scale = q - 1
    # ties away from zero, exactly: floor(mag + 0.5) would round mag + 0.5
    # to even once mag >= 2**52, while mag - floor(mag) is exact
    mag = np.abs(tgt) * math.ldexp(1.0, scale)
    m_int = np.floor(mag)
    m_int = (np.sign(tgt) * (m_int + (mag - m_int >= 0.5))).astype(np.int64)
    bits = np.bitwise_count(np.abs(m_int).astype(np.uint64)).astype(np.int64)

    internal = int(np.sum(np.maximum(bits - 1, 0)))
    row_nnz = np.sum(bits > 0, axis=1)
    additions = internal + int(np.sum(np.maximum(row_nnz - 1, 0)))
    aligned, e_base = align(x)
    sums = m_int.astype(object) @ np.array(aligned, dtype=object)
    y = [Dyadic(int(s), e_base - scale) for s in sums]
    entries = bits.size
    return y, CostReport(additions, int(np.sum(bits)),
                         int(np.sum(bits[m_int < 0])),
                         additions / entries if entries else 0.0, ())
