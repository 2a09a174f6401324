"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The long optional
check of criterion 9 (the 12x4096 shape) is enabled by setting
``SHIFTADD_LONG_ACCEPTANCE=1``.
"""

import os
import time

import numpy as np
import pytest

import shiftadd as sa
from shiftadd import wiring
from shiftadd.cli import cell_plans

from helpers import columns, exact_matvec, random_dyadic_vector, \
    random_plan, synthetic_plan


def _report(num, text):
    print(f"\nACCEPTANCE {num:2d} PASS: {text}", flush=True)


def test_01_csd_scalar_law():
    t0 = time.time()
    lines = []
    for c in range(1, 5):
        mse = sa.csd_distortion_oracle(c, 10 ** 6, seed=1000 + c)
        ref = 28.0 ** (-c) / 3.0
        assert abs(mse - ref) <= 0.05 * ref, (c, mse, ref)
        lines.append(f"C={c}: {mse:.3e} vs {ref:.3e}")
    dt = time.time() - t0
    assert dt < 10.0
    _report(1, f"csd law within 5% for C=1..4 ({dt:.1f}s)  " + "; ".join(lines))


def test_02_binary_scalar_law():
    t0 = time.time()
    lines = []
    for b in (4, 8, 16):
        mse = sa.binary_distortion_oracle(b, 10 ** 6, seed=2000 + b)
        ref = 4.0 ** (-b) / 3.0
        assert abs(mse - ref) <= 0.05 * ref, (b, mse, ref)
        lines.append(f"b={b}: {mse:.3e} vs {ref:.3e}")
    dt = time.time() - t0
    assert dt < 10.0
    _report(2, f"binary law within 5% for b=4,8,16 ({dt:.1f}s)  "
            + "; ".join(lines))


def test_03_mailman_exactness_and_counts():
    t0 = time.time()
    rng = np.random.default_rng(3000)
    for n in range(1, 11):
        k = 1 << n
        expected = sa.mailman_additions(n)
        assert expected < 2 * k
        bit_rows = [[kk for kk in range(k) if kk >> row & 1]
                    for row in range(n)]
        for _ in range(100):
            h = random_dyadic_vector(rng, k)
            y, adds = sa.mailman_apply(n, h)
            assert adds == expected
            for row in range(n):
                acc = sa.Dyadic(0)
                for kk in bit_rows[row]:
                    acc = acc + h[kk]
                assert acc == y[row]
    dt = time.time() - t0
    assert dt < 30.0
    _report(3, f"mailman exact for N=1..10, 100 vectors each; counts match "
               f"recursion and stay below 2K ({dt:.1f}s)")


def test_04_engine_exactness():
    t0 = time.time()
    rng = np.random.default_rng(4000)
    kinds = set()
    for i in range(200):
        plan, _ = random_plan(rng, max_cols=256, max_stages=8)
        kinds.add(plan.codebook.kind)
        x = random_dyadic_vector(rng, plan.n_cols)
        y, _ = sa.apply(plan, x)
        assert y == exact_matvec(plan, x), f"plan {i} mismatch"
    assert kinds == {"mailman", "two-sparse", "self-designing"}
    dt = time.time() - t0
    assert dt < 120.0
    _report(4, f"200 randomized plans (L<=8, K<=256, kinds {sorted(kinds)}) "
               f"bit-exact against the dyadic reconstruction ({dt:.1f}s)")


def test_05_angle_error_cdf():
    t0 = time.time()
    trials = 10 ** 5
    samples = sa.simulate_angle_error(12, 64, trials, seed=5000)
    emp = np.arange(1, trials + 1) / trials
    ref = sa.angle_error_cdf(12, 64, samples)
    dev = max(float(np.max(np.abs(emp - ref))),
              float(np.max(np.abs(emp - 1.0 / trials - ref))))
    assert dev <= 0.01, dev
    dt = time.time() - t0
    assert dt < 120.0
    _report(5, f"empirical CDF (N=12, K=64, 1e5 trials) within {dev:.4f} "
               f"of the analytic CDF in sup norm ({dt:.1f}s)")


def test_06_lower_bound_tracking():
    t0 = time.time()
    n, k, stages = 8, 256, 20
    s, mean, _ = sa.simulate_decomposition(n, k, stages, seed=6000,
                                           matrix_samples=20)
    lb = np.array([sa.distortion_lower_bound(n, k, int(v)) for v in s])
    ratio = mean / lb
    assert np.all(mean >= 0.95 * lb), ratio.min()
    assert np.all(ratio[s <= 12] <= 3.0), ratio[:12].max()
    dt = time.time() - t0
    assert dt < 600.0
    _report(6, f"simulated distortion >= 0.95*D_LB for s=1..20 and within "
               f"3x for s<=12 (ratios {ratio.min():.2f}..{ratio.max():.2f}, "
               f"{dt:.1f}s)")


def _cell_mean(shape, schedule, target_kind, samples, seed):
    """Mean adds/entry over the plans of one bench cell of self-designed
    codebooks; every plan must meet the bit width, and an adaptive plan
    must hold one stage."""
    vals = []
    for plan in cell_plans(shape, schedule, "self-designing", target_kind,
                           samples, (seed,)):
        assert plan.metadata["fit_rel_error"] <= \
            sa.threshold(schedule.target_bits)
        if not schedule.sparsity:  # adaptive
            assert plan.n_stages == 1
        vals.append(sa.cost_of(plan).adds_per_entry)
    return float(np.mean(vals))


def _table1_cell(n, k, bits, samples, seed):
    schedule = sa.StageSchedule.fixed([1], target_bits=bits, max_stages=96)
    return _cell_mean((n, k), schedule, "gaussian", samples, seed)


def test_07_table1_desk_scale():
    t0 = time.time()
    mean_16 = _table1_cell(16, 1024, 16, 20, 7000)
    assert 1.7 <= mean_16 <= 2.1, mean_16
    mean_8 = _table1_cell(8, 256, 8, 20, 7001)
    assert 1.1 <= mean_8 <= 1.45, mean_8
    dt = time.time() - t0
    assert dt < 1200.0
    _report(7, f"16x1024@16bit -> {mean_16:.3f} adds/entry (reference 1.875); "
               f"8x256@8bit -> {mean_8:.3f} (reference 1.25) ({dt:.1f}s)")


def test_08_table2_desk_scale():
    t0 = time.time()
    # uniform [0, 1) targets, codebooks designed on Gaussian matrices
    mean = _cell_mean((10, 1024), sa.StageSchedule.adaptive(16, max_stages=96),
                      "uniform", 20, 8000)
    assert 1.8 <= mean <= 2.3, mean
    dt = time.time() - t0
    assert dt < 900.0
    _report(8, f"uniform 10x1024@16bit single adaptive wiring -> "
               f"{mean:.3f} adds/entry (reference 2) ({dt:.1f}s)")


def test_09_baseline_comparison():
    t0 = time.time()
    rng = np.random.default_rng(9000)
    target = rng.uniform(-1.0, 1.0, (512, 4096))
    x = random_dyadic_vector(rng, 4096, mant_range=32, exp_range=3)
    _, rep = sa.baseline_apply(target, 16, x)
    assert abs(rep.adds_per_entry - 7.5) <= 0.1, rep.adds_per_entry
    assert abs(rep.additions - 15.7e6) <= 0.2e6, rep.additions

    mean = _table1_cell(16, 1024, 16, 3, 9001)
    reduction = 1.0 - mean / 7.5
    assert reduction >= 0.70, reduction
    dt = time.time() - t0
    line = (f"baseline 7.5 -> {rep.adds_per_entry:.4f} adds/entry, "
            f"{rep.additions / 1e6:.2f}M additions; decompose 16x1024@16bit "
            f"cuts {100 * reduction:.1f}%")
    if os.environ.get("SHIFTADD_LONG_ACCEPTANCE") == "1":
        mean_large = _table1_cell(12, 4096, 16, 5, 9002)
        red_large = 1.0 - mean_large / 7.5
        assert red_large >= 0.75, red_large
        line += f"; 12x4096@16bit cuts {100 * red_large:.1f}%"
    dt = time.time() - t0
    _report(9, line + f" ({dt:.1f}s)")


def test_10_property_suites():
    t0 = time.time()
    rng = np.random.default_rng(10_000)

    # greedy residual monotonicity, 1000 cases, read from the kernel's
    # per-step trace
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, 12))
        t = rng.standard_normal(n)
        cb = rng.standard_normal((n, k))
        _, _, steps, trace = wiring._fit_columns(
            t[:, None], cb, 1 + int(rng.integers(0, 5)))
        seq = [float(t @ t)] + trace[0, :steps[0]].tolist()
        assert all(b < a * (1 + 1e-12) for a, b in zip(seq, seq[1:]))

    # budget bound, 1000 cases
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(2, 12))
        s = int(rng.integers(0, 5))
        t = rng.standard_normal(n)
        stage = sa.fit_stage(t[:, None], rng.standard_normal((n, k)), s)
        assert len(columns(stage)[0]) <= 1 + s

    # serialization round trip, 1000 randomized plans
    for _ in range(1000):
        plan = synthetic_plan(rng)
        back = sa.deserialize(sa.serialize(plan))
        assert back == plan
        assert [s.to_records() for s in back.stages] == \
            [s.to_records() for s in plan.stages]

    # CDF monotonicity, 1000 random (N, K) pairs on a grid
    grid = np.linspace(0.0, 1.0, 33)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, 10_000))
        cdf = sa.angle_error_cdf(n, k, grid)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] >= 0.0 and cdf[-1] == pytest.approx(1.0, abs=1e-9)

    dt = time.time() - t0
    _report(10, f"monotonicity, budget, serialization, CDF suites: "
                f"1000 cases each ({dt:.1f}s)")
