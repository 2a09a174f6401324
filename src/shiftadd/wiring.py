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
keeps at least 8/9 of it.  So once the column of largest bound and the
current support are scored, every column whose bound falls short of the
best reduction found cannot win, and is skipped: a safe screening rule in
the sense of El Ghaoui et al. (2012).  Besides the support, one or two
columns per step remain to be scored, and every fit equals the full
scan's, float for float.

One kernel, ``_fit_block``, runs every fit: it steps ``_BLOCK`` target
columns at once as ``(block x K)`` array operations, one target column per
row, and each column leaves the block on its own stopping rule.  The block
size is a constant, not an option: it changes speed, never a result.  The
fitted stage's arrays come straight from the weights the kernel wrote.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyUnreachableError, DimensionError
from .pot import pow2_round_array
from .pow2matrix import Pow2Matrix, advance_effective
from .plan import (ADAPTIVE_SINGLE_STAGE, DecompositionPlan, StageSchedule,
                   distortion_of_matrix, target_digest, threshold)

_BLOCK = 128
# The screen's float slack relative to r_sq, and an absolute floor that
# covers subnormal rounding; see _fit_block for why it suffices.
_SLACK_REL = 2.0 ** -40
_SLACK_ABS = 2.0 ** -1000


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
    """Reject inputs the fit cannot score: non-finite entries, or a target
    whose squared norm overflows float64.  Returns that squared norm."""
    for name, a in (("target", tgt), ("codebook", cb)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} holds NaN or infinite entries")
    with np.errstate(over="ignore"):
        norm_sq = float(np.sum(tgt * tgt))
    if not math.isfinite(norm_sq):
        raise ValueError("the target's squared norm overflows float64; "
                         "rescale the target by a power of two")
    return norm_sq


def _fit_columns(tgt: np.ndarray, cb: np.ndarray, max_steps: int,
                 stop_sq: np.ndarray | None = None
                 ) -> tuple[Pow2Matrix, np.ndarray, list[tuple[float, ...]]]:
    """Greedy-fit every column of ``tgt`` over the columns of ``cb``.

    A column stops after ``max_steps`` changes, when its residual is zero,
    when no change strictly reduces its residual, or once its squared
    residual is at most its entry of ``stop_sq``.  Returns the fitted
    ``K x M`` stage, each column's final squared residual, and each
    column's squared residual after every applied step.
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
    # a column of zero norm can never be picked: fit over the others only,
    # and take no step when there are none
    usable = np.flatnonzero(norms_all > 0.0)
    cb, cb_t, norms = cb[:, usable], cb_t[usable], norms_all[usable]
    if not usable.size:
        max_steps = 0
    rows = np.ascontiguousarray(tgt.T)
    # (block x K) work arrays shared by every block: allocating fresh ones
    # each step costs page faults that tripled the time of a step
    work = np.empty((2, min(_BLOCK, rows.shape[0]), cb.shape[1]))
    parts = [(np.empty(0, dtype=np.intp), np.empty(0),
              np.empty(0, dtype=np.intp), np.empty(0))]
    traces = []
    for lo in range(0, rows.shape[0], _BLOCK):
        *part, block_traces = _fit_block(
            rows[lo:lo + _BLOCK], cb, cb_t, norms, max_steps,
            None if stop_sq is None else stop_sq[lo:lo + _BLOCK], work)
        parts.append(part)
        traces += block_traces
    j, vals, col_len, r_sq = (np.concatenate(p) for p in zip(*parts))
    stage = Pow2Matrix(len(norms_all), rows.shape[0], usable[j], vals < 0.0,
                       np.frexp(vals)[1] - 1, col_len)
    return stage, r_sq, traces


def _score(u, w, n, r_sq):
    """Score setting coefficients ``w`` to their rounded least-squares
    values, on gathered entries: the squared residual after the change, the
    rounded value, and the change ``delta`` of the coefficient."""
    v = pow2_round_array((w * n + u) / n)
    delta = w - v
    return (delta * n + 2.0 * u) * delta + r_sq, v, delta


def _fit_block(r: np.ndarray, cb: np.ndarray, cb_t: np.ndarray,
               norms: np.ndarray, max_steps: int,
               stop_sq: np.ndarray | None,
               work: np.ndarray):
    """The greedy loop over a block of target columns, one per row of ``r``.

    ``cb_t`` is the transposed codebook and ``norms`` its squared column
    norms, all positive.  Returns the fitted entries in column order
    (codebook index and weight, an exact power of two), the entry count of
    each column, each column's final squared residual and its per-step
    trace.  Per column, every result equals that of a loop over one column
    that scores every candidate: ``r_sq`` is the row's own BLAS dot product
    (``np.vecdot``, the same call as ``r @ r``), every score is the
    one-column float expression, and the choice is the lowest score with
    the smallest index among ties.

    **The screen.**  With ``u = r @ cb``, setting coefficient ``k`` to any
    value ``w_k - delta`` gives the squared residual ``r_sq + 2 delta u_k +
    delta**2 norms_k >= r_sq - bound_k``, where ``bound_k = u_k**2 /
    norms_k``.  This holds for support entries too.  A step scores exactly
    the column of largest bound off the support and every support entry,
    and lets ``m`` be the best of those scores, or ``r_sq`` if that is
    lower.  Only a column whose score can reach ``m`` can be chosen (the
    tie-break included) or make a step improve, and such a column has
    ``bound_k >= r_sq - m`` up to float error.  So the step also scores
    every other ``k`` with ``bound_k >= r_sq - m - slack``, where ``slack
    = r_sq * 2**-40 + 2**-1000``, and chooses among all it scored.

    **Why the slack covers float error** (``eps = 2**-53``).  Write ``x =
    |delta| sqrt(norms_k)`` and ``y = |u_k| / sqrt(norms_k)``, so that ``y**2
    = bound_k``, which is at most ``r_sq`` up to the dot products' error.
    If ``x >= 4 y``, the exact score exceeds ``r_sq`` by at least ``x**2 /
    2``.  Its float value stays above ``r_sq (1 - eps)``, and so above
    ``m``, because ``m < r_sq - slack`` whenever a column is skipped.
    Otherwise, every term of the score expression is at most ``24 y**2``.
    Then the float score is within about ``90 eps r_sq`` of the exact one,
    and the bound's three roundings add ``3 eps r_sq``.  Both are far below
    ``2**-40 r_sq``.  The absolute floor covers subnormal rounding when
    ``r_sq`` is tiny.  ``_fit_columns`` refuses scales at which ``2 u``
    could overflow, so no score is NaN.
    """
    b, k_count = r.shape[0], cb.shape[1]
    r = r.copy()
    w = np.zeros((b, k_count))
    r_sq = np.vecdot(r, r)
    inv_norms = 1.0 / norms
    # row i's pick at step t is support[i, t], its squared residual after
    # it trace[i, t]; both widen on demand, as max_steps may be far beyond
    # the steps a fit takes
    support = np.empty((b, 0), dtype=np.intp)
    trace = np.empty((b, 0))
    steps = np.zeros(b, dtype=np.intp)
    act = np.arange(b)
    for t in range(max_steps):
        live = r_sq[act] != 0.0
        if stop_sq is not None:
            live &= r_sq[act] > stop_sq[act]
        act = act[live]
        if not act.size:
            break
        if t == support.shape[1]:
            extra = min(max(t, 8), max_steps - t)
            support = np.concatenate(
                [support, np.empty((b, extra), dtype=np.intp)], axis=1)
            trace = np.concatenate([trace, np.empty((b, extra))], axis=1)
        pos = np.arange(act.size)
        rs = r_sq[act]
        u, bound = work[:, :act.size]
        np.matmul(r[act], cb, out=u)
        np.multiply(u, inv_norms, out=bound)
        bound *= u
        # score exactly the top candidate off the support and the support
        # (a live row picked at every earlier step, so sup has no filler)
        sup = support[act, :t]
        bound[pos[:, None], sup] = -np.inf
        top = np.argmax(bound, axis=1)
        bound[pos, top] = -np.inf
        cand = np.concatenate([top[:, None], sup], axis=1)
        score, v, delta = _score(u[pos[:, None], cand], w[act[:, None], cand],
                                 norms[cand], rs[:, None])
        # then every other k whose bound can reach the best of those
        m = np.minimum(score.min(axis=1), rs)
        flat = np.flatnonzero(
            bound >= (rs - m - (rs * _SLACK_REL + _SLACK_ABS))[:, None])
        rows, ks = np.divmod(flat, k_count)
        more = _score(u.ravel()[flat], w[act[rows], ks], norms[ks], rs[rows])
        row_of = np.concatenate([np.repeat(pos, t + 1), rows])
        k_of = np.concatenate([cand.ravel(), ks])
        score, v, delta = (np.concatenate([x.ravel(), y])
                           for x, y in zip((score, v, delta), more))
        # per row the lowest score, the smallest k among ties
        order = np.lexsort((k_of, score, row_of))
        best = order[np.searchsorted(row_of[order], pos)]
        better = score[best] < rs
        act, best = act[better], best[better]
        if not act.size:
            break
        j = k_of[best]
        w[act, j] = v[best]
        support[act, t] = j
        r[act] += delta[best, None] * cb_t[j]
        r_sq[act] = trace[act, t] = np.vecdot(r[act], r[act])
        steps[act] += 1
    # the flat indices the fit wrote, in column order (cheaper than a scan)
    picked = np.arange(support.shape[1]) < steps[:, None]
    flat = np.unique((np.arange(b)[:, None] * k_count + support)[picked])
    vals = w.ravel()[flat]
    flat, vals = flat[vals != 0.0], vals[vals != 0.0]
    cols, js = np.divmod(flat, k_count)
    return (js, vals, np.bincount(cols, minlength=b), r_sq,
            [tuple(tr[:n]) for tr, n in zip(trace.tolist(), steps.tolist())])


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
    stage, r_sq, traces = _fit_columns(t[:, None], cb, 1 + s)
    return FitResult(stage, float(r_sq[0]), traces[0])


def fit_stage(target: np.ndarray, codebook_cols: np.ndarray,
              s: int) -> Pow2Matrix:
    """Fit every target column independently with per-column budget ``s``."""
    if s < 0:
        raise ValueError("s must be >= 0")
    tgt = np.asarray(target, dtype=np.float64)
    cb = np.asarray(codebook_cols, dtype=np.float64)
    if tgt.ndim != 2 or cb.ndim != 2 or tgt.shape[0] != cb.shape[0]:
        raise DimensionError(
            f"target {tgt.shape} and codebook {cb.shape} row counts differ")
    return _fit_columns(tgt, cb, 1 + s)[0]


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


def _decompose_fixed(tgt: np.ndarray, eff: np.ndarray,
                     schedule: StageSchedule):
    stages = []
    stop = None if schedule.target_bits is None else \
        threshold(schedule.target_bits)
    tgt_norm = float(np.sum(tgt * tgt))
    idx = 0
    while True:
        if stop is None:
            if idx >= len(schedule.sparsity):
                break
        else:
            diff = tgt - eff
            if float(np.sum(diff * diff)) <= stop * tgt_norm:
                break
            if idx >= schedule.max_stages:
                raise AccuracyUnreachableError(
                    f"accuracy unreachable: {schedule.target_bits}-bit "
                    f"target not met within {schedule.max_stages} stages")
        s = schedule.sparsity[min(idx, len(schedule.sparsity) - 1)]
        stage = fit_stage(tgt, eff, s)
        eff = advance_effective(eff, stage)
        stages.append(stage)
        idx += 1
    return stages, eff


def _decompose_adaptive(tgt: np.ndarray, cb: np.ndarray,
                        schedule: StageSchedule):
    t_sq = np.array([float(t @ t) for t in tgt.T])
    stop_sq = threshold(schedule.target_bits) * t_sq
    stage, r_sq, traces = _fit_columns(tgt, cb, schedule.max_stages,
                                       stop_sq)
    stuck = np.flatnonzero(r_sq > stop_sq)
    if stuck.size:
        k = stuck[0]
        raise AccuracyUnreachableError(
            f"accuracy unreachable: column {k} stuck at relative error "
            f"{r_sq[k] / max(t_sq[k], 1e-300):.3e} after "
            f"{len(traces[k])} steps (budget {schedule.max_stages})")
    eff = advance_effective(cb, stage)
    return [stage], eff
