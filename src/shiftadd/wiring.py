"""Greedy wiring-matrix fitting and the multi-stage decomposition driver.

Each wiring column approximates one target column as a sparse signed
power-of-two combination of codebook columns.  A greedy step replaces at
most a single component: for every candidate column the exact least-squares
coefficient against the component-removed residual is rounded to the
nearest signed power of two, the squared residual of every such change is
scored, and the single best strictly improving change is applied.  Ties
break toward the smallest column index, so fits are bit-reproducible.  This
is matching pursuit over a power-of-two alphabet (Mallat & Zhang, IEEE TSP
1993).

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

_BLOCK = 32


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


def _check_finite(tgt: np.ndarray, cb: np.ndarray) -> None:
    """Reject inputs the fit cannot score: non-finite entries, or a target
    whose squared norm overflows float64."""
    for name, a in (("target", tgt), ("codebook", cb)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} holds NaN or infinite entries")
    with np.errstate(over="ignore"):
        norm_sq = float(np.sum(tgt * tgt))
    if not math.isfinite(norm_sq):
        raise ValueError("the target's squared norm overflows float64; "
                         "rescale the target by a power of two")


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
    _check_finite(tgt, cb)
    cb_t = np.ascontiguousarray(cb.T)
    norms = np.einsum("kn,kn->k", cb_t, cb_t)
    rows = np.ascontiguousarray(tgt.T)
    # (block x K) work arrays shared by every block: allocating fresh ones
    # each step costs page faults that tripled the time of a step
    work = np.empty((3, min(_BLOCK, rows.shape[0]), cb.shape[1]))
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
    stage = Pow2Matrix(cb.shape[1], rows.shape[0], j, vals < 0.0,
                       np.frexp(vals)[1] - 1, col_len)
    return stage, r_sq, traces


def _fit_block(r: np.ndarray, cb: np.ndarray, cb_t: np.ndarray,
               norms: np.ndarray, max_steps: int,
               stop_sq: np.ndarray | None,
               work: np.ndarray):
    """The greedy loop over a block of target columns, one per row of ``r``.

    ``cb_t`` is the transposed codebook and ``norms`` its squared column
    norms (zero columns are never picked).  Per column, the arithmetic is
    that of a loop over one column: ``r_sq`` is the row's own dot product,
    every array expression rounds as the one-column expression does, and
    ``argmin`` along the row keeps the smallest-index tie-break.  Returns
    the fitted entries in column order (codebook index and weight, an exact
    power of two), the entry count of each column, each column's final
    squared residual and its per-step trace.
    """
    b, k_count = r.shape[0], cb.shape[1]
    r = r.copy()
    w = np.zeros((b, k_count))
    r_sq = np.array([float(row @ row) for row in r])
    traces = [[] for _ in range(b)]
    picked = []
    unusable = norms <= 0.0
    safe_norms = np.where(unusable, 1.0, norms)
    act = np.arange(b)
    for _ in range(max_steps):
        live = r_sq[act] != 0.0
        if stop_sq is not None:
            live &= r_sq[act] > stop_sq[act]
        act = act[live]
        if not act.size:
            break
        u, wa, delta = work[:, :act.size]
        np.matmul(r[act], cb, out=u)
        np.take(w, act, axis=0, out=wa)
        # coeff = (u + w * norms) / safe_norms
        np.multiply(wa, norms, out=delta)
        delta += u
        delta /= safe_norms
        v = pow2_round_array(delta)
        np.subtract(wa, v, out=delta)
        # score = r_sq + delta * (2 * u + delta * norms), kept in wa
        score = np.multiply(delta, norms, out=wa)
        u *= 2.0
        score += u
        score *= delta
        score += r_sq[act, None]
        score[:, unusable] = np.inf
        j = np.argmin(score, axis=1)
        pos = np.arange(act.size)
        better = score[pos, j] < r_sq[act]
        act, j, pos = act[better], j[better], pos[better]
        if not act.size:
            break
        w[act, j] = v[pos, j]
        picked.append(act * k_count + j)
        r[act] += delta[pos, j, None] * cb_t[j]
        for a in act.tolist():
            r_sq[a] = float(r[a] @ r[a])
            traces[a].append(float(r_sq[a]))
    # the flat indices the fit wrote, in column order (cheaper than a scan)
    flat = np.unique(np.concatenate(picked)) if picked else \
        np.empty(0, dtype=np.intp)
    vals = w.ravel()[flat]
    flat, vals = flat[vals != 0.0], vals[vals != 0.0]
    cols, js = np.divmod(flat, k_count)
    return (js, vals, np.bincount(cols, minlength=b), r_sq,
            [tuple(t) for t in traces])


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
