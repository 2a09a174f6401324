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

One kernel, ``_fit_columns``, runs every fit: ``fit_stage``, ``fit_column``,
the adaptive fit and codebook self-design.  Each greedy step runs once over
all live target columns, one per row of an array, and each column leaves
on its own stopping rule.  Only the passes over all K codebook columns run
in chunks of ``_CHUNK`` rows, which bounds the work arrays.  The chunk
size is a constant, not an option: it changes speed, and a result only
through the last bit of a BLAS product (BLAS may sum a row differently
beside other rows), which can matter only at a near-tie.  The fitted
stage's arrays come straight from the picks and weights the kernel
recorded.

One loop, ``fit_stages``, fits stages one after another, each against the
codebook rolled forward through the stages before it: the fixed-stage
``decompose``, codebook self-design and ``analysis.simulate_decomposition``
all run on it.
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
                   distortion_of_matrix, target_digest, threshold)

_CHUNK = 128
# The screen's float slack relative to r_sq, and an absolute floor that
# covers subnormal rounding; see _fit_columns for why it suffices.
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
                 ) -> tuple[Pow2Matrix, np.ndarray, np.ndarray, np.ndarray]:
    """Greedy-fit every column of ``tgt`` over the columns of ``cb``.

    A column stops after ``max_steps`` changes, when its residual is zero,
    when no change strictly reduces its residual, or once its squared
    residual is at most its entry of ``stop_sq``.  Returns the fitted
    ``K x M`` stage, each column's final squared residual and step count,
    and an ``M x width`` array whose row ``i`` holds column ``i``'s squared
    residual after each of its steps.

    Per column, every result follows ``greedy_fit_oracle`` in the tests, a
    loop over one column that scores every candidate: ``r_sq`` is the
    row's own BLAS dot product (``np.vecdot``, the same call as ``r @
    r``), every score is the one-column float expression, and the choice
    is the lowest score with the smallest index among ties.  The two are
    equal only up to the last bit of a BLAS product: the oracle's
    correlations come from a one-row product (gemv), the kernel's from a
    block of rows (gemm), which may sum in another order.  So at a
    near-tie the two can pick differently, and so can one column fitted
    beside different columns.

    **One step for all columns.**  Each step runs once over every live
    column, one per row of ``r``.  Only the passes over all ``K`` codebook
    columns run in ``_CHUNK``-row chunks, through two shared ``(chunk x K)``
    work arrays: the correlations ``u = r @ cb``, the bound ``bound_k =
    u_k**2 / norms_k`` (as ``u * u``, then scaled in place by ``1 /
    norms``), the column ``top`` of largest bound off the support, and the
    largest bound ``second`` left once the support and ``top`` are set
    aside.  Scoring, the pick and the residual update run once per step,
    on gathered entries.

    **The screen.**  Setting coefficient ``k`` to any value ``w_k - delta``
    gives the squared residual ``r_sq + 2 delta u_k + delta**2 norms_k >=
    r_sq - bound_k``.  This holds for support entries too.  A step scores
    ``top`` and every support entry, and lets ``m`` be the best of those
    scores, or ``r_sq`` if that is lower.  Only a column whose score can
    reach ``m`` can be chosen (the tie-break included) or make a step
    improve, and such a column has ``bound_k >= r_sq - m`` up to float
    error.  So the step also scores every other ``k`` with ``bound_k >= thr
    = r_sq - m - slack``, where ``slack = r_sq * 2**-40 + 2**-1000``.  Only
    a row with ``second >= thr`` has such a ``k``; for those rows alone the
    correlations are computed again, chunk by chunk.  BLAS may sum a row's
    product differently beside other rows, so the second product can
    differ from the first in the last bit; the slack covers that too.

    **Why the slack covers float error** (``eps = 2**-53``).  Write ``x =
    |delta| sqrt(norms_k)`` and ``y = |u_k| / sqrt(norms_k)``, so that ``y**2
    = bound_k``, which is at most ``r_sq`` up to the dot products' error.
    If ``x >= 4 y``, the exact score exceeds ``r_sq`` by at least ``x**2 /
    2``.  Its float value stays above ``r_sq (1 - eps)``, and so above
    ``m``, because ``m < r_sq - slack`` whenever a column is skipped.
    Otherwise, every term of the score expression is at most ``24 y**2``.
    Then the float score is within about ``90 eps r_sq`` of the exact one,
    and the bound's three roundings (``1 / norms``, the square and the
    scaling) add ``3 eps r_sq``.  Both are far below ``2**-40 r_sq``.  The
    absolute floor covers subnormal rounding when ``r_sq`` is tiny.  Scales
    at which ``2 u`` could overflow are refused up front, so no score is
    NaN.
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
    inv_norms = 1.0 / norms
    r = np.array(tgt.T, order="C")
    n_cols, k_count = r.shape[0], cb.shape[1]
    r_sq = np.vecdot(r, r)
    # (chunk x K) work arrays shared by every pass: allocating fresh ones
    # each time costs page faults that tripled the time of a step
    work = np.empty((2, min(_CHUNK, n_cols), k_count))
    # row i's pick at step p is support[i, p] and that column's current
    # weight value[i, p] (every position holding a column has its weight);
    # its squared residual after the step is trace[i, p].  All three widen
    # on demand, as max_steps may be far beyond the steps a fit takes
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
                np.concatenate([a, np.empty((n_cols, extra), a.dtype)],
                               axis=1) for a in (support, value, trace))
        rs = r_sq[act]
        # a live row picked at every earlier step, so sup has no filler
        sup = support[act, :t]
        top = np.empty(act.size, dtype=np.intp)
        u_cand = np.empty((act.size, t + 1))
        second = np.empty(act.size)
        for lo in range(0, act.size, _CHUNK):
            c = slice(lo, lo + _CHUNK)
            u, bound = _bounds(r[act[c]], cb, inv_norms, work)
            pos = np.arange(u.shape[0])
            bound[pos[:, None], sup[c]] = -np.inf
            top[c] = np.argmax(bound, axis=1)
            u_cand[c, 0] = u[pos, top[c]]
            u_cand[c, 1:] = u[pos[:, None], sup[c]]
            bound[pos, top[c]] = -np.inf
            second[c] = bound.max(axis=1)
        # score top and the support: top's weight is 0, and where it lies
        # in the support (which then covers every usable column) its
        # duplicate is dropped
        cand = np.concatenate([top[:, None], sup], axis=1)
        w_cand = np.concatenate([np.zeros((act.size, 1)), value[act, :t]],
                                axis=1)
        score, v, delta = _score(u_cand, w_cand, norms[cand], rs[:, None])
        score[(sup == top[:, None]).any(axis=1), 0] = np.inf
        best = _pick(score, cand)
        pos = np.arange(act.size)
        score, j, v, delta = (a[pos, best] for a in (score, cand, v, delta))
        # then every other k whose bound can reach the best of those, on
        # the rows that have one
        thr = rs - np.minimum(score, rs) - (rs * _SLACK_REL + _SLACK_ABS)
        more = np.flatnonzero(second >= thr)
        for lo in range(0, more.size, _CHUNK):
            p = more[lo:lo + _CHUNK]
            u, bound = _bounds(r[act[p]], cb, inv_norms, work)
            sub = np.arange(p.size)[:, None]
            bound[sub, sup[p]] = -np.inf
            bound[sub[:, 0], top[p]] = -np.inf
            flat = np.flatnonzero(bound >= thr[p, None])
            if not flat.size:
                continue
            rows, ks = np.divmod(flat, k_count)
            s_more, v_more, d_more = _score(u.ravel()[flat], 0.0, norms[ks],
                                            rs[p][rows])
            # pad each row's survivors behind its best so far, position 0
            first = np.searchsorted(rows, np.arange(p.size))
            col = 1 + np.arange(rows.size) - first[rows]
            table = np.full((p.size, col.max(initial=0) + 1), -1)
            table[rows, col] = np.arange(rows.size)
            pad = table < 0
            k_tab = np.where(pad, k_count, ks[table])
            s_tab = np.where(pad, np.inf, s_more[table])
            k_tab[:, 0], s_tab[:, 0] = j[p], score[p]
            won = table[np.arange(p.size), _pick(s_tab, k_tab)]
            q, won = p[won >= 0], won[won >= 0]
            score[q], j[q], v[q], delta[q] = (s_more[won], ks[won],
                                              v_more[won], d_more[won])
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


def _bounds(r, cb, inv_norms, work):
    """The correlations ``u = r @ cb`` and bounds ``u**2 / norms`` of the
    rows ``r``, written into the work arrays."""
    u, bound = work[:, :r.shape[0]]
    np.matmul(r, cb, out=u)
    np.square(u, out=bound)
    bound *= inv_norms
    return u, bound


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


def fit_stages(target: np.ndarray, eff: np.ndarray, sparsity):
    """Fit one stage per entry of ``sparsity``, each against the codebook
    rolled forward through the stages before it, and yield ``(stage,
    eff)`` after each, ``eff`` being the codebook rolled through it too.

    Lazy: a stage is fitted only when asked for, so a caller may stop at
    any accuracy, and ``sparsity`` may be endless.
    """
    for s in sparsity:
        stage = fit_stage(target, eff, s)
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
    t_sq = np.array([float(t @ t) for t in tgt.T])
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
