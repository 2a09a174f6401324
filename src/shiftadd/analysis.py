"""Closed-form and Monte-Carlo performance model.

Approximating a unit target vector by the best scaled codeword out of K
random ones leaves two orthogonal error parts: the angle error (component
orthogonal to the chosen codeword) and the distance error (rounding the
optimal scale to a power of two).  The squared correlation against a single
codeword is Beta(1/2, (N-1)/2) distributed, which gives the angle-error CDF
``1 - B(1/2, (N-1)/2, 1-r)**K`` and, per refinement step, the mean total
squared error ``(1 + 26 * mean_angle_sq) / 27``.  Powers of the CDF are
evaluated in log space so codebooks as large as ``K = 2**20`` stay accurate.

scipy is imported by the functions that use it, not with the module, so
``import shiftadd`` does not load ``scipy.special`` or ``scipy.integrate``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .codebooks import gaussian_build, make_codebook
from .wiring import fit_stages

# Trials drawn per batch by simulate_angle_error.
_SIM_CHUNK = 1024


def code_rate(n_rows: int, n_cols: int) -> float:
    """R = log2(K) / N, the logarithmic aspect ratio of the codebook."""
    return math.log2(n_cols) / n_rows


def _log_beta_cdf(a: float, b: float, x) -> np.ndarray:
    """log B(a, b, x), using the complement near 1 to keep precision."""
    from scipy import special

    x = np.asarray(x, dtype=np.float64)
    head = special.betainc(a, b, x)
    tail = special.betainc(b, a, 1.0 - x)
    with np.errstate(divide="ignore"):
        return np.where(head < 0.9, np.log(head), np.log1p(-tail))


def angle_error_cdf(n_rows: int, n_cols: int, r) -> np.ndarray | float:
    """CDF of the squared angle error against the best of K codewords."""
    if n_rows < 2:
        raise ValueError("need at least two dimensions")
    if n_cols < 1:
        raise ValueError("need at least one codeword")
    rr = np.asarray(r, dtype=np.float64)
    log_b = _log_beta_cdf(0.5, (n_rows - 1) / 2.0, 1.0 - rr)
    out = -np.expm1(n_cols * log_b)
    return float(out) if np.isscalar(r) else out


@functools.lru_cache(maxsize=None)
def mean_sq_angle_error(n_rows: int, n_cols: int) -> float:
    """``integral of B(1/2, (N-1)/2, r)**K over [0, 1]``.

    The integrand hugs zero until r approaches 1 for large K, so the
    quadrature is anchored at the point where the integrand reaches 1/2.
    """
    from scipy import integrate

    if n_rows < 2:
        raise ValueError("need at least two dimensions")
    a, b = 0.5, (n_rows - 1) / 2.0

    def integrand(r):
        return math.exp(n_cols * float(_log_beta_cdf(a, b, r)))

    lo, hi = 0.0, 1.0
    for _ in range(200):  # bisect integrand(r) = 1/2
        mid = 0.5 * (lo + hi)
        if integrand(mid) < 0.5:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    anchor = 0.5 * (lo + hi)
    val, _ = integrate.quad(integrand, 0.0, 1.0,
                            points=[anchor], limit=400,
                            epsabs=0.0, epsrel=1e-10)
    return float(val)


def total_error_from_angle(mean_angle_sq: float) -> float:
    """Mean total squared error of one step: angle part plus the 1/27
    distance part, ``(1 + 26 * mean_angle_sq) / 27``."""
    return (1.0 + 26.0 * mean_angle_sq) / 27.0


def total_error(n_rows: int, n_cols: int) -> float:
    return total_error_from_angle(mean_sq_angle_error(n_rows, n_cols))


def distortion_lower_bound(n_rows: int, n_cols: int, s: int) -> float:
    """Independence bound on the relative error after ``s + 1`` greedy
    steps: ``total_error ** (s + 1)``."""
    if s < 0:
        raise ValueError("s must be >= 0")
    return total_error(n_rows, n_cols) ** (s + 1)


def asymptotic_threshold(rate: float) -> float:
    """Location ``4**-R`` of the angle-error CDF step as K grows."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return 4.0 ** (-rate)


# ---------------------------------------------------------------------------
# Monte-Carlo
# ---------------------------------------------------------------------------

def simulate_angle_error(n_rows: int, n_cols: int, trials: int,
                         seed: int) -> np.ndarray:
    """Sorted samples of ``1 - max_k rho_k**2`` over Gaussian draws."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    out = np.empty(trials)
    done = 0
    while done < trials:
        m = min(_SIM_CHUNK, trials - done)
        t = rng.standard_normal((m, n_rows))
        b = rng.standard_normal((m, n_rows, n_cols))
        dots = np.einsum("mn,mnk->mk", t, b)
        t_sq = np.einsum("mn,mn->m", t, t)
        b_sq = np.einsum("mnk,mnk->mk", b, b)
        rho_sq = dots * dots / (t_sq[:, None] * b_sq)
        out[done:done + m] = 1.0 - rho_sq.max(axis=1)
        done += m
    out.sort()
    return out


def simulate_decomposition(n_rows: int, n_cols: int, n_stages: int,
                           codebook_kind: str = "gaussian", seed: int = 0,
                           matrix_samples: int = 20):
    """Mean relative column error after each unit-sparsity wiring stage.

    ``codebook_kind`` is ``"gaussian"``, the i.i.d. matrix of the paper's
    error analysis (``gaussian_build``), or any codebook kind.  Returns
    ``(s, mean, stderr)`` arrays where ``s`` runs from 1 to ``n_stages``
    and the mean is over columns and matrices of ``|t_k - approx_k|^2 /
    |t_k|^2``.  With no stages the zero approximation is reported: a
    single row ``s = 0`` with distortion 1.
    """
    if n_stages < 0:
        raise ValueError("n_stages must be >= 0")
    if matrix_samples < 1:
        raise ValueError("matrix_samples must be at least 1")
    s_values = np.arange(1, n_stages + 1)
    if n_stages == 0:
        return np.zeros(1, dtype=int), np.ones(1), np.zeros(1)
    rng = np.random.default_rng(seed)
    per_matrix = np.empty((matrix_samples, n_stages))
    for m in range(matrix_samples):
        target = rng.standard_normal((n_rows, n_cols))
        cb_seed = int(rng.integers(2 ** 62))
        eff = gaussian_build(n_rows, n_cols, cb_seed) \
            if codebook_kind == "gaussian" else make_codebook(
                codebook_kind, n_rows, n_cols, seed=cb_seed,
                target=target).dense()
        col_norms = np.sum(target * target, axis=0)
        fits = fit_stages(target, eff, [1] * n_stages)
        for ell, (_, eff) in enumerate(fits):
            diff = target - eff
            rel = np.sum(diff * diff, axis=0) / col_norms
            per_matrix[m, ell] = float(np.mean(rel))
    mean = per_matrix.mean(axis=0)
    stderr = per_matrix.std(axis=0, ddof=1) / math.sqrt(matrix_samples) \
        if matrix_samples > 1 else np.zeros(n_stages)
    return s_values, mean, stderr
