"""Greedy wiring-matrix fitting and the multi-stage decomposition driver.

Each wiring column approximates one target column as a sparse signed
power-of-two combination of codebook columns.  A greedy step replaces at
most a single component: the exact least-squares coefficient of a candidate
column against the component-removed residual is rounded to the nearest
signed power of two, the squared residual of that change is its score, and
the single best strictly improving change over all K columns is applied.
Ties break toward the smallest column index, so fits are bit-reproducible.
This is matching pursuit over a power-of-two alphabet (Mallat & Zhang, IEEE
TSP 1993).

A step need not score all K columns.  With ``u_k`` the correlation of the
residual with column ``k``, no change of coefficient ``k`` lowers the
squared residual by more than ``u_k**2 / |b_k|**2``, the reduction of the
unrounded least-squares change, and rounding to the nearest power of two
keeps at least 8/9 of it.  Relative to the squared residual, that bound is
the squared correlation of the residual scaled to unit norm with the column
scaled to unit norm, so one float32 product of unit rows with unit columns
bounds a whole chunk of residuals, each bound at most about 1.  Once the
two columns of largest bound off the support are scored, every column whose
bound falls short of the best reduction found, by more than a slack proven
to cover the float32 error, cannot win, and is skipped: a safe screening
rule in the sense of El Ghaoui et al. (2012).  The bound holds for a
change of a support coefficient too, so the support is screened by it like
any other column.  A row scans its bounds again only when the largest one
left beside those two can still reach the best score found; per step, a
few columns are scored, each from its own float64 dot product, and every
fit equals the full scan's, float for float.

From the second stage of a fixed-stage fit on, the first step of a column
often needs no scan at all.  The rolled codebook's column ``e_k`` then
approximates target column ``t_k``: with ``gap = max_j |t_j - e_j| /
|t_j|`` and ``c_k`` the largest ``|cos(t_k, t_j)|`` over the other target
columns, Cauchy-Schwarz bounds the cosine of ``t_k`` with every other
``e_j`` by ``(c_k + gap) / (1 - gap)``.  Where that keeps every other
column's bound below what ``e_k`` achieves, ``e_k`` is the first pick,
proven from one dot product: a safe rule of the same kind (Fercoq,
Gramfort and Salmon, ICML 2015).  ``fit_stages`` computes ``c`` once, when
a gap first falls below 1/2; on the 16x1024 Table-1 design the proof holds
for about 80% of the (later stage, column) pairs.

One kernel, ``_fit_columns``, runs every fit: ``fit_stage``, ``fit_column``,
the adaptive fit and codebook self-design.  Each greedy step runs once over
all live target columns, one per row of an array, and each column leaves
on its own stopping rule.  Only the passes over all K codebook columns run
in chunks of ``_CHUNK`` rows, which bounds the work array.  The chunk
size is a constant, not an option: it changes speed only.  Every score
comes from the candidate's own dot product, never from a row of a shared
product (BLAS may sum a row differently beside other rows), so a column's
fit depends neither on the chunk nor on the columns fitted beside it.  The
fitted stage's arrays come straight from the picks and weights the kernel
recorded.

One loop, ``fit_stages``, fits stages one after another, each against the
codebook rolled forward through the stages before it: the fixed-stage
``decompose``, codebook self-design and ``analysis.simulate_decomposition``
all run on it.  Only it proves first steps, as the adaptive fit has no
earlier stage.  Codebook self-design runs on it too, but on the paper's
Table-1 and Table-2 cells its second stage starts at a gap above 1/2 (0.87
and 0.83), so it never computes ``c``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyUnreachableError, DimensionError
from .pot import pow2_round_array
from .pow2matrix import Pow2Matrix, advance_effective
from .plan import (ADAPTIVE_SINGLE_STAGE, DecompositionPlan, StageSchedule,
                   check_target, distortion_of_matrix, target_digest,
                   threshold)

_CHUNK = 128
# The screen's float slack relative to r_sq, besides a term that grows
# with the column length, and an absolute floor that covers subnormal
# rounding; see _fit_columns for why it suffices.
_SLACK_REL = 2.0 ** -40
_SLACK_ABS = 2.0 ** -1000
# The least squared norm of a target column at which a first pick may be
# proven: above it, underflow in the proof's dot products is negligible
# beside their rounding.  The screen needs no floor; see _fit_columns.
_NORM_FLOOR = 2.0 ** -400


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting one column: its coefficients as a ``K x 1``
    matrix, the final squared residual, and the squared residual after
    each applied step."""

    column: Pow2Matrix
    residual_sq: float
    trace: tuple[float, ...]

    @property
    def steps(self) -> int:
        return len(self.trace)


def _check_finite(tgt: np.ndarray, cb: np.ndarray) -> float:
    """Reject inputs the fit cannot score: a target ``check_target``
    refuses, or a codebook with non-finite entries.  Returns the target's
    squared norm."""
    norm_sq = check_target(tgt)
    if not np.isfinite(cb).all():
        raise ValueError("codebook holds NaN or infinite entries")
    return norm_sq


def _fit_columns(tgt: np.ndarray, cb: np.ndarray, max_steps: int,
                 stop_sq: np.ndarray | None = None,
                 cos_max: np.ndarray | None = None
                 ) -> tuple[Pow2Matrix, np.ndarray, np.ndarray, np.ndarray]:
    """Greedy-fit every column of ``tgt`` over the columns of ``cb``.

    A column stops after ``max_steps`` changes, when its residual is zero,
    when no change strictly reduces its residual, or once its squared
    residual is at most its entry of ``stop_sq``.  Returns the fitted
    ``K x M`` stage, each column's final squared residual and step count,
    and an ``M x width`` array whose row ``i`` holds column ``i``'s squared
    residual after each of its steps and NaN past them, so that two runs
    of one fit return the same bytes.

    Per column, every result follows ``greedy_fit_oracle`` in the tests, a
    loop over one column that scores every candidate: ``r_sq`` is the
    row's own BLAS dot product (``np.vecdot``, the same call as ``r @
    r``), every score is the one-column float expression, and the choice
    is the lowest score with the smallest index among ties.  Every
    correlation a score uses is the pair's own dot product ``np.vecdot(r_i,
    b_k)``, in the kernel as in the oracle.  It gives the same float
    whatever the batch it is computed in, so a column's fit does not
    depend on the columns fitted beside it, and the two agree float for
    float, near-ties included: scores that tie in exact arithmetic may
    round apart, and then the lower float wins in both.

    **One step for all columns.**  Each step runs once over every live
    column, one per row of ``r``.  Only the passes over all ``K`` codebook
    columns run in ``_CHUNK``-row chunks, through one shared float32
    ``(chunk x K)`` work array: the relative bound ``bound_k = (r /
    sqrt(r_sq) . unit_k)**2``, one float32 product of the rows scaled to
    unit norm with the codebook's columns scaled to unit norm (``unit = cb
    / sqrt(norms)``, formed once per fit and held in float32), squared in
    place (``_bounds``); then three ``argmax`` passes, each cheaper than
    one ``max`` pass: the column ``top`` of largest bound off the support,
    the runner-up, of largest bound once ``top`` is set aside too, and the
    largest bound ``second`` left after both, read where its ``argmax``
    lands.  The support's bounds are gathered before the support is set
    aside.  ``top`` and the runner-up are scored from their own float64
    dot products.  Scoring, the pick and the residual update run once per
    step in float64, on gathered entries.

    **The screen.**  Let ``u_k`` be the dot product a score uses and ``y_k
    = |u_k| / sqrt(norms_k)``.  Setting coefficient ``k`` to any value
    ``w_k - delta`` gives the squared residual ``r_sq + 2 delta u_k +
    delta**2 norms_k >= r_sq - y_k**2``.  This holds for support entries
    too.  A step scores ``top`` and the runner-up, at weight 0, and lets
    ``m`` be the better of those scores, or ``r_sq`` if that is lower.  A
    candidate whose bound was already set aside repeats ``top`` or a
    support entry, which happens only when fewer than two usable columns
    lie off the support, and scores ``inf``.  Only a column whose score can
    reach ``m`` can be chosen (the tie-break included) or make a step
    improve, and such a column has ``y_k**2 >= r_sq - m``, so ``bound_k >=
    (r_sq - m) / r_sq`` up to float error.  So the step scores, at its
    current weight, each support entry with ``bound_k >= thr = (r_sq - m)
    / r_sq - slack - 2**-1000 / r_sq``, where ``slack = 2**-40 + margin + 2
    g32 + 5 eps32`` and ``margin = (N + 2) 2**-50``, ``N`` the rows of
    ``cb`` (``_margins``), capped at 2, which it reaches from ``N = 2**23``
    on; ``m`` and ``thr`` then follow the best score so far.  Among the
    other columns, only a row with ``second >= thr`` can have such a
    ``k``; for those rows alone the bounds are computed again, chunk by
    chunk, and each ``k`` above ``thr`` is scored from its own dot product.
    From a slack of about 1 on, ``thr`` is negative: every support entry
    survives, and so does every other column but ``top`` and the
    runner-up, whose bounds the rescan sets to ``-inf`` with the support's,
    below any finite ``thr``, so the same code scores each column once.
    Every
    survivor and the best so far are scores of the same kind, and one
    merge (``_merge``) compares them and their ties exactly.

    **Why the slack covers float error** (``eps = 2**-53``, ``g = N eps /
    (1 - N eps)``, ``eps32 = 2**-24``, ``g32 = N eps32 / (1 - N eps32)``).
    Write ``x = |delta| sqrt(norms_k)``; ``y_k`` is at most ``sqrt(r_sq)``
    up to the dot product's error.  If ``x >= 4 y_k``, the exact score
    exceeds ``r_sq`` by at least ``x**2 / 2``.  Its float value stays above
    ``r_sq (1 - eps)``, and so above ``m``, because ``m < r_sq (1 -
    slack)`` whenever a column is skipped.  Otherwise, every term of the
    score expression is at most ``24 y_k**2``, and the float score is
    within about ``90 eps r_sq`` of the exact one.  The bound comes from
    another product, in float32; it estimates ``x_k = y_k / sqrt(r_sq)``,
    at most about 1.  The scaled row and ``unit_k`` carry two float64
    roundings each (a square root and a division) and one float32 rounding
    per entry, or an absolute error of at most 2**-150 where an entry
    flushes to a float32 subnormal or zero.  The absolute values of the
    product's terms sum to at most about 1, so the exact product of the
    float32 vectors lies within ``2 eps32 + 4 eps`` of ``(r . b_k) /
    sqrt(r_sq norms_k)``; the float32 gemm errs by at most ``g32`` of that
    sum, and ``u_k`` by ``g |r| |b_k|``, which is ``g`` on this scale.
    Underflow adds at most ``N 2**-148`` more, far below ``eps32``.  So
    the float32 product lies within ``E = g32 + 2 eps32 + g + 4 eps`` of
    ``x_k`` in size, and its square, rounded once in float32, within ``2 E
    + eps32`` of ``x_k**2`` (``(x_k - E)**2 >= x_k**2 - 2 E x_k`` even
    where ``E`` is large), that is ``2 g32 + 5 eps32 + 2 g + 8 eps``.  The
    ``g32`` and ``eps32`` terms are the slack's float32 part; ``2 g`` falls
    below ``margin = 8 (N + 2) eps``; the ``eps`` terms, the score's error
    and the roundings that form ``thr`` fall far below ``2**-40``.  Scaled
    to unit norm, no bound overflows float32 at any scale the fit accepts.
    The absolute floor ``2**-1000``, taken relative to ``r_sq``, covers
    subnormal rounding in the scores when ``r_sq`` is tiny.  Scales at
    which ``2 u`` could overflow are refused up front, so no score is NaN.

    **The proven first pick.**  With ``cos_max``, target column ``t_k`` is
    paired with codebook column ``e_k``, as in a later stage of
    ``fit_stages``.  Let ``c_k = cos_max[k]``, at least ``|cos(t_k, t_j)|``
    for every ``j != k``, and ``gap = max_j |t_j - e_j| / |t_j|``.  As
    ``t_k . e_j = t_k . t_j + t_k . (e_j - t_j)`` and ``|e_j| >= (1 - gap)
    |t_j|``, Cauchy-Schwarz gives ``|cos(t_k, e_j)| <= rho_k = (c_k + gap)
    / (1 - gap)``, so ``y_j**2 <= r_sq rho_k**2`` for every ``j != k`` at
    step 1, where the weights are 0 and ``r_sq = |t_k|**2``.  If ``r_sq
    rho_k**2 < r_sq - score_k - slack``, the screen's argument shows that
    every other column scores above ``e_k``, and that ``e_k`` improves.  A
    row that passes this test takes ``e_k`` as its ``top`` from one dot
    product, with a runner-up that repeats it, and leaves the step's
    ``(chunk x K)`` passes: it has nothing left to scan.  As ``rho_k < 1``
    needs ``gap < 1/2``, no row is tested otherwise.  ``gap < 1/2`` also
    gives every ``e_j`` a nonzero norm, so ``usable`` indexes all of
    ``cb``.  A target column whose squared norm is below ``_NORM_FLOOR =
    2**-400`` makes ``gap`` infinite.

    **Margins of the proof.**  The floats differ from the quantities above
    by at most: ``2 g + 6 eps`` for ``c_k`` (a norm, a division and a dot
    product of unit columns); ``g + 3 eps`` for ``gap < 1/2`` (a
    difference, two sums, a division and a square root); and ``2 g`` on
    ``rho`` for the kernel's own ``u_j`` (error at most ``g |t_k| |e_j|``)
    and ``norms_j`` (at least ``(1 - g) |e_j|**2``), from which ``y_j`` is
    formed.  These sum to less than ``5 g + 9 eps``, so ``rho`` is computed
    with ``margin`` added to ``c_k + gap`` and taken from ``1 - gap``.  The
    threshold needs only the ``2**-40`` part of the slack: the scan scores
    ``e_k`` from the same dot product as the proof, so ``score_k`` is the
    scan's own, and forming ``r_sq rho**2`` and the threshold adds a few
    ``eps r_sq``.  The norm floor keeps each product's underflow error, at
    most ``N 2**-1074``, far below these relative errors.  The pick is
    forced, and its weight ``pow2_round(u_k / norms_k)`` is the full
    scan's.
    """
    norm_sq = _check_finite(tgt, cb)
    cb_t = np.ascontiguousarray(cb.T)
    with np.errstate(over="ignore"):
        norms_all = np.einsum("kn,kn->k", cb_t, cb_t)
    # |u| <= sqrt(r_sq * norm) for every correlation u: this keeps 2u, and
    # so every score, finite and free of NaN
    if not (math.sqrt(norm_sq) * math.sqrt(norms_all.max(initial=0.0))
            < 2.0 ** 1020):
        raise ValueError("the target and codebook scales overflow float64 "
                         "in the fit; rescale them by powers of two")
    gap = math.inf if cos_max is None else _max_gap(tgt, cb)
    # a column of zero norm can never be picked: fit over the others only,
    # and take no step when there are none
    usable = np.flatnonzero(norms_all > 0.0)
    cb_t, norms = cb_t[usable], norms_all[usable]
    if not usable.size:
        max_steps = 0
    unit = (cb[:, usable] / np.sqrt(norms)).astype(np.float32)
    r = np.array(tgt.T, order="C")
    n_cols, k_count = r.shape[0], len(usable)
    r_sq = np.vecdot(r, r)
    margin, slack = _margins(r.shape[1])
    # one (chunk x K) work array shared by every pass: allocating a fresh
    # one each time costs page faults that tripled the time of a step
    work = np.empty((min(_CHUNK, n_cols), k_count), dtype=np.float32)
    # row i's pick at step p is support[i, p] and that column's current
    # weight value[i, p] (every position holding a column has its weight);
    # its squared residual after the step is trace[i, p].  All three widen
    # on demand, as max_steps may be far beyond the steps a fit takes, and
    # hold -1 or NaN past each row's steps
    support = np.empty((n_cols, 0), dtype=np.intp)
    value, trace = np.empty((2, n_cols, 0))
    steps = np.zeros(n_cols, dtype=np.intp)
    act = np.arange(n_cols)
    for t in range(max_steps):
        live = r_sq[act] != 0.0
        if stop_sq is not None:
            live &= r_sq[act] > stop_sq[act]
        act = act[live]
        if not act.size:
            break
        if t == support.shape[1]:
            extra = min(max(t, 8), max_steps - t)
            support, value, trace = (
                np.concatenate([a, np.full((n_cols, extra), fill, a.dtype)],
                               axis=1)
                for a, fill in ((support, -1), (value, np.nan),
                                (trace, np.nan)))
        rs = r_sq[act]
        # a live row picked at every earlier step, so sup has no filler
        sup = support[act, :t]
        # per row: top and the runner-up with their bounds, the largest
        # bound left after them, and the bounds of the support
        pair = np.empty((act.size, 2), dtype=np.intp)
        u_pair = np.empty((act.size, 2))
        b_pair = np.empty((act.size, 2), dtype=np.float32)
        second = np.empty(act.size, dtype=np.float32)
        b_sup = np.empty((act.size, t), dtype=np.float32)
        chunks = [slice(lo, lo + _CHUNK) for lo in range(0, act.size, _CHUNK)]
        if t == 0 and gap < 0.5:
            # a proven row's top is its own column, with nothing left to
            # score after it: its runner-up repeats it
            proven, u_own = _proven_first(r[act], cb_t[act], norms[act], rs,
                                          cos_max[act], gap, margin)
            pair[proven] = act[proven, None]
            u_pair[proven] = u_own[proven, None]
            b_pair[proven], second[proven] = (0.0, -np.inf), -np.inf
            scan = np.flatnonzero(~proven)
            chunks = [scan[lo:lo + _CHUNK] for lo in range(0, scan.size,
                                                           _CHUNK)]
        for c in chunks:
            r_c = r[act[c]]
            bound = _bounds(r_c, rs[c], unit, work)
            pos = np.arange(r_c.shape[0])
            b_sup[c] = bound[pos[:, None], sup[c]]
            bound[pos[:, None], sup[c]] = -np.inf
            for i in range(2):
                at = np.argmax(bound, axis=1)
                pair[c, i], b_pair[c, i] = at, bound[pos, at]
                bound[pos, at] = -np.inf
            # an argmax pass and a gather cost less than one max pass
            second[c] = bound[pos, np.argmax(bound, axis=1)]
            # every score comes from the candidate's own dot product
            u_pair[c] = np.vecdot(r_c[:, None], cb_t[pair[c]])
        # score top and the runner-up at weight 0; one whose bound was set
        # aside repeats an earlier pick or the support, which happens only
        # when fewer than two usable columns lie off the support
        score, v, delta = _score(u_pair, 0.0, norms[pair], rs[:, None])
        score[b_pair == -np.inf] = np.inf
        won = _pick(score, pair)
        pos = np.arange(act.size)
        best = [a[pos, won] for a in (score, pair, v, delta)]
        # then the support entries whose bound can reach the best of those
        thr = _cut(best[0], rs, slack)
        # flatnonzero and divmod: a 2-D nonzero took several times as long
        rows, at = np.divmod(np.flatnonzero(b_sup >= thr[:, None]), t)
        ks = sup[rows, at]
        _merge(best, pos, rows, ks, _score(np.vecdot(r[act[rows]], cb_t[ks]),
                                           value[act[rows], at], norms[ks],
                                           rs[rows]))
        # then every other k whose bound can reach the best so far, on the
        # rows that have one
        thr = _cut(best[0], rs, slack)
        more = np.flatnonzero(second >= thr)
        for lo in range(0, more.size, _CHUNK):
            p = more[lo:lo + _CHUNK]
            bound = _bounds(r[act[p]], rs[p], unit, work)
            sub = np.arange(p.size)[:, None]
            bound[sub, sup[p]] = -np.inf
            bound[sub, pair[p]] = -np.inf
            rows, ks = np.divmod(np.flatnonzero(bound >= thr[p, None]),
                                 k_count)
            _merge(best, p, rows, ks, _score(
                np.vecdot(r[act[p[rows]]], cb_t[ks]), 0.0, norms[ks],
                rs[p[rows]]))
        score, j, v, delta = best
        better = score < rs
        act, j, v, delta = act[better], j[better], v[better], delta[better]
        if not act.size:
            break
        # re-picking a column sets its weight at every position holding it
        value[act, :t] = np.where(sup[better] == j[:, None], v[:, None],
                                  value[act, :t])
        support[act, t], value[act, t] = j, v
        r[act] += delta[:, None] * cb_t[j]
        r_sq[act] = trace[act, t] = np.vecdot(r[act], r[act])
        steps[act] += 1
    # each column's distinct picks with their final weights, in column order
    picked = np.arange(support.shape[1]) < steps[:, None]
    flat, at = np.unique((np.arange(n_cols)[:, None] * k_count
                          + support)[picked], return_index=True)
    vals = value[picked][at]
    flat, vals = flat[vals != 0.0], vals[vals != 0.0]
    cols, js = np.divmod(flat, k_count)
    stage = Pow2Matrix(len(norms_all), n_cols, usable[js], vals < 0.0,
                       np.frexp(vals)[1] - 1,
                       np.bincount(cols, minlength=n_cols))
    return stage, r_sq, steps, trace


def _score(u, w, n, r_sq):
    """Score setting coefficients ``w`` to their rounded least-squares
    values, on gathered entries: the squared residual after the change, the
    rounded value, and the change ``delta`` of the coefficient."""
    v = pow2_round_array((w * n + u) / n)
    delta = w - v
    return (delta * n + 2.0 * u) * delta + r_sq, v, delta


def _cut(score, r_sq, slack):
    """The screen's threshold on the relative bounds of rows whose best
    score so far is ``score`` (see ``_fit_columns``)."""
    return ((r_sq - np.minimum(score, r_sq)) / r_sq
            - (slack + _SLACK_ABS / r_sq))


def _merge(best, p, rows, ks, scored):
    """Fold scored candidates into the best so far of live rows ``p``, in
    place.  ``best`` holds the score, column, value and change of each live
    row's best candidate; candidate ``i`` belongs to row ``p[rows[i]]``
    (``rows`` ascending), is column ``ks[i]``, and ``scored`` holds its
    score, value and change.  A row keeps the lowest score, the smallest
    column among ties."""
    if not rows.size:
        return
    # pad each row's candidates behind its best so far, position 0
    first = np.searchsorted(rows, np.arange(p.size))
    col = 1 + np.arange(rows.size) - first[rows]
    table = np.full((p.size, col.max() + 1), -1)
    table[rows, col] = np.arange(rows.size)
    pad = table < 0
    k_tab = np.where(pad, np.iinfo(np.intp).max, ks[table])
    s_tab = np.where(pad, np.inf, scored[0][table])
    k_tab[:, 0], s_tab[:, 0] = best[1][p], best[0][p]
    won = table[np.arange(p.size), _pick(s_tab, k_tab)]
    q, won = p[won >= 0], won[won >= 0]
    for a, b in zip(best, (scored[0], ks, scored[1], scored[2])):
        a[q] = b[won]


def _proven_first(r, e, norms, r_sq, cos_max, gap, margin):
    """Per row, whether its first pick is proven to be its own codebook
    column (see ``_fit_columns``), and that column's correlation."""
    u = np.vecdot(r, e)
    score = _score(u, 0.0, norms, r_sq)[0]
    rho = (cos_max + gap + margin) / (1.0 - gap - margin)
    thr = r_sq - score - (r_sq * _SLACK_REL + _SLACK_ABS)
    return r_sq * rho * rho < thr, u


def _max_gap(tgt, eff):
    """``max_j |t_j - e_j| / |t_j|`` over the columns of ``tgt`` and
    ``eff``; infinite when their shapes differ or a target column's squared
    norm is below ``_NORM_FLOOR``."""
    if tgt.shape != eff.shape:
        return math.inf
    with np.errstate(all="ignore"):
        d = tgt - eff
        t_sq = np.einsum("nk,nk->k", tgt, tgt)
        ratio = np.einsum("nk,nk->k", d, d) / t_sq
    if not t_sq.min(initial=math.inf) >= _NORM_FLOOR:
        return math.inf
    return math.sqrt(ratio.max(initial=0.0))


def _max_cosines(tgt):
    """``max_{j != k} |cos(t_k, t_j)|`` for every column ``t_k`` of
    ``tgt`` (0 when it has no other column), in one chunked pass."""
    unit = tgt / np.sqrt(np.einsum("nk,nk->k", tgt, tgt))
    k = unit.shape[1]
    out = np.empty(k)
    # one small block of rows, reused: a block of _CHUNK rows (1 MB at
    # K = 1024) raised the peak RSS of a Table-1 run by 0.6 MB, while 8
    # rows cost about 1.4 ms more per decomposition
    rows = 8
    gram = np.empty((min(rows, k), k))
    for lo in range(0, k, rows):
        g = gram[:min(rows, k - lo)]
        np.matmul(unit[:, lo:lo + rows].T, unit, out=g)
        np.abs(g, out=g)
        g[np.arange(g.shape[0]), np.arange(lo, lo + g.shape[0])] = 0.0
        g.max(axis=1, out=out[lo:lo + g.shape[0]])
    return out


def _bounds(r, r_sq, unit, work):
    """The screen's bounds ``(r . b_k)**2 / (|b_k|**2 r_sq)`` of the rows
    ``r``, relative to their squared norms ``r_sq``: the squared float32
    products of the rows scaled to unit norm with the float32 unit columns
    ``unit``, written into the float32 array ``work``.  Each lies within
    the screen's slack of its exact value (see ``_fit_columns``)."""
    bound = work[:r.shape[0]]
    np.matmul((r / np.sqrt(r_sq)[:, None]).astype(np.float32), unit,
              out=bound)
    return np.square(bound, out=bound)


def _margins(n):
    """The float error margins, relative to ``r_sq``, for codebook columns
    of length ``n`` (see ``_fit_columns``): the proof's ``margin = (n + 2)
    2**-50``, and the screen's slack, which adds ``_SLACK_REL`` and a
    float32 bound's error ``2 g32 + 5 eps32`` to it, capped at 2, where
    every column passes."""
    margin = (n + 2) * 2.0 ** -50
    eps32 = 2.0 ** -24
    g32 = n * eps32 / (1.0 - n * eps32) if n * eps32 < 1.0 else math.inf
    return margin, min(_SLACK_REL + margin + 2.0 * g32 + 5.0 * eps32, 2.0)


def _pick(score, k):
    """Per row, the position of the lowest score, the smallest ``k`` among
    ties."""
    low = score == score.min(axis=1, keepdims=True)
    return np.argmin(np.where(low, k, np.iinfo(k.dtype).max), axis=1)


def fit_column(target_col: np.ndarray, codebook_cols: np.ndarray,
               s: int) -> FitResult:
    """Fit one target column with at most ``1 + s`` nonzero coefficients."""
    if s < 0:
        raise ValueError("s must be >= 0")
    t = np.asarray(target_col, dtype=np.float64)
    cb = np.asarray(codebook_cols, dtype=np.float64)
    if cb.ndim != 2 or t.shape != (cb.shape[0],):
        raise DimensionError(
            f"target column of length {t.shape} does not match codebook "
            f"{cb.shape}")
    stage, r_sq, steps, trace = _fit_columns(t[:, None], cb, 1 + s)
    return FitResult(stage, float(r_sq[0]),
                     tuple(trace[0, :steps[0]].tolist()))


def fit_stage(target: np.ndarray, codebook_cols: np.ndarray, s: int, *,
              cos_max: np.ndarray | None = None) -> Pow2Matrix:
    """Fit every target column independently with per-column budget ``s``.

    ``cos_max``, when given, holds for each target column ``t_k`` an upper
    bound on ``max_{j != k} |cos(t_k, t_j)|``; with it, the first pick of a
    column whose codebook column ``k`` lies close enough to ``t_k`` is
    proven instead of scanned for, and the fit is unchanged.  A smaller
    value than the true one can change the fit.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    tgt = np.asarray(target, dtype=np.float64)
    cb = np.asarray(codebook_cols, dtype=np.float64)
    if tgt.ndim != 2 or cb.ndim != 2 or tgt.shape[0] != cb.shape[0]:
        raise DimensionError(
            f"target {tgt.shape} and codebook {cb.shape} row counts differ")
    if cos_max is not None:
        cos_max = np.asarray(cos_max, dtype=np.float64)
        if cos_max.shape != (tgt.shape[1],):
            raise DimensionError(f"cos_max {cos_max.shape} does not match "
                                 f"target {tgt.shape}")
    return _fit_columns(tgt, cb, 1 + s, cos_max=cos_max)[0]


def decompose(target: np.ndarray, codebook, schedule: StageSchedule,
              metadata: dict | None = None) -> DecompositionPlan:
    """Decompose ``target`` over ``codebook`` according to ``schedule``.

    Fixed-stages mode fits ``W_l`` against the rolling effective codebook
    ``B W_1 ... W_{l-1}``; with ``target_bits`` set, stages repeat (reusing
    the last listed sparsity) until the relative error meets the bit-width
    threshold.  Adaptive mode fits a single wiring matrix, growing each
    column until it meets the threshold on its own.
    """
    tgt = np.asarray(target, dtype=np.float64)
    if tgt.ndim != 2:
        raise DimensionError("target must be a matrix")
    if tgt.shape != (codebook.n_rows, codebook.n_cols):
        raise DimensionError(
            f"target {tgt.shape} does not match codebook "
            f"{(codebook.n_rows, codebook.n_cols)}")
    n, k = tgt.shape
    cb = codebook.dense()
    _check_finite(tgt, cb)

    meta = dict(metadata or {})
    meta.setdefault("target_sha256", target_digest(tgt))
    meta["schedule"] = schedule.to_dict()
    meta["stage_order"] = "design; apply in reverse"

    if schedule.mode == ADAPTIVE_SINGLE_STAGE:
        stages, eff = _decompose_adaptive(tgt, cb, schedule)
        meta["mean_column_sparsity"] = \
            float(np.mean(np.maximum(stages[0].col_len - 1, 0)))
    else:
        stages, eff = _decompose_fixed(tgt, cb, schedule)

    report = distortion_of_matrix(eff, tgt)
    meta["fit_rel_error"] = report.rel_error
    meta["fit_achieved_bits"] = report.achieved_bits
    return DecompositionPlan(n, k, codebook, tuple(stages), meta)


def fit_stages(target: np.ndarray, eff: np.ndarray, sparsity):
    """Fit one stage per entry of ``sparsity``, each against the codebook
    rolled forward through the stages before it, and yield ``(stage,
    eff)`` after each, ``eff`` being the codebook rolled through it too.

    Lazy: a stage is fitted only when asked for, so a caller may stop at
    any accuracy, and ``sparsity`` may be endless.  So is ``cos_max``, the
    input of the proven first pick (see ``_fit_columns``): it is computed
    once, before the first stage whose codebook lies within a gap of 1/2
    of the target, and handed to every stage from there on.
    """
    cos_max = None
    for s in sparsity:
        # no first pick can be proven while the gap is 1/2 or more
        if cos_max is None and _max_gap(target, eff) < 0.5:
            cos_max = _max_cosines(target)
        stage = fit_stage(target, eff, s, cos_max=cos_max)
        eff = advance_effective(eff, stage)
        yield stage, eff


def _decompose_fixed(tgt: np.ndarray, eff: np.ndarray,
                     schedule: StageSchedule):
    stages = []
    if schedule.target_bits is None:
        for stage, eff in fit_stages(tgt, eff, schedule.sparsity):
            stages.append(stage)
        return stages, eff
    # the error is checked before each fit, repeating the last sparsity
    stop = threshold(schedule.target_bits) * float(np.sum(tgt * tgt))
    fits = fit_stages(tgt, eff, itertools.chain(
        schedule.sparsity, itertools.repeat(schedule.sparsity[-1])))
    while True:
        diff = tgt - eff
        if float(np.sum(diff * diff)) <= stop:
            return stages, eff
        if len(stages) >= schedule.max_stages:
            raise AccuracyUnreachableError(
                f"accuracy unreachable: {schedule.target_bits}-bit "
                f"target not met within {schedule.max_stages} stages")
        stage, eff = next(fits)
        stages.append(stage)


def _decompose_adaptive(tgt: np.ndarray, cb: np.ndarray,
                        schedule: StageSchedule):
    t_sq = np.vecdot(tgt.T, tgt.T)
    stop_sq = threshold(schedule.target_bits) * t_sq
    stage, r_sq, steps, _ = _fit_columns(tgt, cb, schedule.max_stages,
                                         stop_sq)
    stuck = np.flatnonzero(r_sq > stop_sq)
    if stuck.size:
        k = stuck[0]
        raise AccuracyUnreachableError(
            f"accuracy unreachable: column {k} stuck at relative error "
            f"{r_sq[k] / max(t_sq[k], 1e-300):.3e} after "
            f"{steps[k]} steps (budget {schedule.max_stages})")
    eff = advance_effective(cb, stage)
    return [stage], eff
