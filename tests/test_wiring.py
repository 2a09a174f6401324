"""Greedy fitting: oracles, invariants, and the decomposition driver."""

import itertools
import json
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import shiftadd as sa
from shiftadd import wiring
from shiftadd.pot import SignedPow2
from shiftadd.pow2matrix import advance_effective

from helpers import (advance_effective_oracle, columns, greedy_fit_oracle,
                     same_bits)


def _fits(fits):
    stage, r_sq, steps, trace = fits
    traces = [tuple(tr[:n]) for tr, n in zip(trace.tolist(), steps.tolist())]
    return list(zip(columns(stage), r_sq.tolist(), traces))


def fit_one(t, cb, s):
    """The kernel's fit of the one column ``t`` with at most ``1 + s``
    nonzero coefficients: its entries, final squared residual, and the
    squared residual after each step."""
    return _fits(wiring._fit_columns(t[:, None], cb, 1 + s))[0]


class TestFitColumn:
    def test_two_dim_example(self):
        col, r_sq, _ = fit_one(np.array([0.8, -0.3]), np.eye(2), 1)
        assert col == ((0, SignedPow2(1, 0)), (1, SignedPow2(-1, -2)))
        assert r_sq == pytest.approx(0.0425, abs=1e-12)

    def test_exact_power_is_found(self):
        col, r_sq, _ = fit_one(np.array([0.5, 0.0]), np.eye(2), 0)
        assert col == ((0, SignedPow2(1, -1)),)
        assert r_sq == 0.0

    def test_zero_target_early_stop(self):
        col, _, trace = fit_one(np.zeros(3), np.ones((3, 4)), 2)
        assert col == () and len(trace) == 0

    def test_duplicate_columns_tie_break(self):
        # both duplicates score identically on the first pick; the smaller
        # index wins, deterministically
        cb = np.array([[1.0, 1.0], [1.0, 1.0]])
        col = fit_one(np.array([0.9, 0.9]), cb, 0)[0]
        assert [j for j, _ in col] == [0]
        again = fit_one(np.array([0.9, 0.9]), cb, 3)
        assert again == fit_one(np.array([0.9, 0.9]), cb, 3)

    def test_zero_codebook_columns_skipped(self):
        cb = np.array([[0.0, 1.0], [0.0, 0.0]])
        col = fit_one(np.array([0.5, 0.0]), cb, 1)[0]
        assert col == ((1, SignedPow2(1, -1)),)

    def test_budget_bound(self):
        rng = np.random.default_rng(300)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(2, 12))
            s = int(rng.integers(0, 4))
            col = fit_one(rng.standard_normal(n),
                          rng.standard_normal((n, k)), s)[0]
            assert len(col) <= 1 + s

    def test_residual_monotone(self):
        rng = np.random.default_rng(301)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(2, 16))
            t = rng.standard_normal(n)
            trace = fit_one(t, rng.standard_normal((n, k)), 6)[2]
            seq = [float(t @ t)] + list(trace)
            for a, b in zip(seq, seq[1:]):
                assert b < a * (1 + 1e-12)

    def test_each_step_is_best_single_change(self):
        # brute force over (column, signed power) single-component changes
        rng = np.random.default_rng(302)
        powers = [0.0] + [s * 2.0 ** e for s in (1, -1) for e in range(-8, 9)]
        for _ in range(40):
            k = int(rng.integers(2, 5))
            cb = rng.standard_normal((2, k))
            t = rng.standard_normal(2)
            for step in range(3):
                w = np.zeros(k)
                for j, c in fit_one(t, cb, step)[0]:
                    w[j] = c.value
                # recompute from scratch at this sparsity, then try all
                # single changes on top of it
                cur = t - cb @ w
                best = float(cur @ cur)
                for j, v in itertools.product(range(k), powers):
                    trial = w.copy()
                    trial[j] = v
                    d = t - cb @ trial
                    best = min(best, float(d @ d))
                assert fit_one(t, cb, step + 1)[1] <= best + 1e-12

    def test_dimension_error(self):
        with pytest.raises(sa.DimensionError):
            sa.fit_stage(np.zeros((3, 1)), np.zeros((2, 4)), 1)


class TestFitStage:
    def test_self_representation(self):
        rng = np.random.default_rng(303)
        cb = rng.standard_normal((4, 6))
        stage = sa.fit_stage(cb, cb, 1)
        for k, col in enumerate(columns(stage)):
            assert col == ((k, SignedPow2(1, 0)),)

    def test_budget_and_shape(self):
        rng = np.random.default_rng(304)
        tgt = rng.standard_normal((4, 10))
        cb = rng.standard_normal((4, 16))
        stage = sa.fit_stage(tgt, cb, 2)
        assert (stage.rows, stage.cols) == (16, 10)
        assert all(len(col) <= 3 for col in columns(stage))
        assert stage.nnz <= 10 * 3

    def test_single_stage_error_near_model(self):
        # one unit-sparsity stage performs two picks; the mean relative
        # column error should sit just above the two-step model value
        rng = np.random.default_rng(305)
        rels = []
        for _ in range(6):
            tgt = rng.standard_normal((8, 256))
            cb = rng.standard_normal((8, 256))
            stage = sa.fit_stage(tgt, cb, 1)
            diff = tgt - cb @ stage.dense()
            rels.append(np.mean(np.sum(diff * diff, axis=0) /
                                np.sum(tgt * tgt, axis=0)))
        model = sa.total_error(8, 256) ** 2
        assert 0.95 * model <= np.mean(rels) <= 2.0 * model

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(306)
        tgt = rng.standard_normal((3, 7))
        cb = rng.standard_normal((3, 9))
        perm = rng.permutation(7)
        a = sa.fit_stage(tgt, cb, 1)
        b = sa.fit_stage(tgt[:, perm], cb, 1)
        for k, p in enumerate(perm):
            assert columns(b)[k] == columns(a)[p]


class TestDecompose:
    def test_deterministic(self):
        rng = np.random.default_rng(307)
        tgt = rng.standard_normal((4, 16))
        cb = sa.make_codebook("mailman", 4, 16)
        p1 = sa.decompose(tgt, cb, sa.StageSchedule.fixed([1, 1]))
        p2 = sa.decompose(tgt, cb, sa.StageSchedule.fixed([1, 1]))
        assert sa.serialize(p1) == sa.serialize(p2)

    def test_error_decreases_with_stages(self):
        rng = np.random.default_rng(308)
        tgt = rng.standard_normal((4, 16))
        cb = sa.make_codebook("mailman", 4, 16)
        errs = []
        for stages in range(1, 6):
            plan = sa.decompose(tgt, cb, sa.StageSchedule.fixed([1] * stages))
            errs.append(plan.metadata["fit_rel_error"])
        assert all(b <= a * (1 + 1e-12) for a, b in zip(errs, errs[1:]))

    def test_fixed_until_bits(self):
        rng = np.random.default_rng(309)
        tgt = rng.standard_normal((4, 64))
        cb = sa.make_codebook("self-designing", 4, 64, target=tgt)
        plan = sa.decompose(tgt, cb, sa.StageSchedule.fixed([1], target_bits=6))
        assert plan.metadata["fit_rel_error"] <= sa.threshold(6)
        assert plan.metadata["fit_achieved_bits"] >= 6

    def test_adaptive_reaches_bits(self):
        rng = np.random.default_rng(310)
        tgt = rng.standard_normal((4, 64))
        cb = sa.make_codebook("self-designing", 4, 64, target=tgt)
        plan = sa.decompose(tgt, cb, sa.StageSchedule.adaptive(8))
        assert plan.n_stages == 1
        rep = sa.distortion(plan, tgt)
        assert rep.rel_error <= sa.threshold(8)
        assert max(rep.per_column) <= sa.threshold(8) * (1 + 1e-9)

    def test_adaptive_unreachable(self):
        rng = np.random.default_rng(311)
        tgt = rng.standard_normal((4, 8))
        cb = sa.make_codebook("two-sparse", 4, 8)
        with pytest.raises(sa.AccuracyUnreachableError):
            sa.decompose(tgt, cb, sa.StageSchedule.adaptive(24, max_stages=6))

    def test_fixed_until_bits_unreachable(self):
        rng = np.random.default_rng(312)
        tgt = rng.standard_normal((3, 8))
        cb = sa.make_codebook("mailman", 3, 8)
        with pytest.raises(sa.AccuracyUnreachableError):
            sa.decompose(tgt, cb,
                         sa.StageSchedule.fixed([1], target_bits=24,
                                                max_stages=2))

    def test_shape_mismatch(self):
        cb = sa.make_codebook("mailman", 3, 8)
        with pytest.raises(sa.DimensionError):
            sa.decompose(np.zeros((3, 9)), cb, sa.StageSchedule.fixed([1]))

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            sa.StageSchedule.fixed([])
        with pytest.raises(ValueError):
            sa.StageSchedule(mode="adaptive-single-stage")
        with pytest.raises(ValueError):
            sa.StageSchedule.fixed([-1])
        with pytest.raises(ValueError):
            sa.StageSchedule.adaptive(0)

    @pytest.mark.parametrize("build, error", [
        (lambda: sa.StageSchedule.fixed([1.5]), TypeError),
        (lambda: sa.StageSchedule.fixed([1], 8.0), TypeError),
        (lambda: sa.StageSchedule.adaptive(8, 2.5), TypeError),
        (lambda: sa.StageSchedule.fixed([1], 10 ** 310), ValueError),
        (lambda: sa.StageSchedule.adaptive(sa.plan.MAX_BITS + 1),
         ValueError),
        (lambda: sa.StageSchedule.adaptive(8, -1), ValueError),
        (lambda: sa.StageSchedule.fixed([1] * (sa.plan.MAX_STAGES + 1)),
         ValueError),
        (lambda: sa.StageSchedule.adaptive(8, sa.plan.MAX_STAGES + 1),
         ValueError),
        (lambda: sa.StageSchedule("adaptive-single-stage", (1, 2), 8),
         ValueError)])
    def test_schedule_refuses_non_integers_and_overflow(self, build, error):
        # these used to fail deep in the fit, or in threshold()
        with pytest.raises(error, match="sparsity|target_bits|max_stages"):
            build()

    def test_schedule_stores_python_ints(self):
        schedule = sa.StageSchedule.fixed([np.int64(1)], np.int16(8),
                                          np.int32(3))
        assert json.loads(json.dumps(schedule.to_dict())) == {
            "mode": "fixed-stages", "sparsity": [1], "target_bits": 8,
            "max_stages": 3}


class TestBlockedKernel:
    """The kernel, one step over all columns with chunked passes, equals
    the per-column loop it replaced, in entries, final residual and
    per-step trace."""

    @pytest.mark.parametrize("m", [1, 31, 32, 33, 65, 129,
                                   2 * wiring._CHUNK + 1])
    def test_budgeted_fit_matches_oracle(self, m):
        rng = np.random.default_rng(320 + m)
        tgt = rng.standard_normal((5, m))
        cb = rng.standard_normal((5, 24))
        fits = wiring._fit_columns(tgt, cb, 3)
        assert _fits(fits) == [greedy_fit_oracle(tgt[:, k], cb, 3)
                               for k in range(m)]
        stage = sa.fit_stage(tgt, cb, 2)
        assert columns(stage) == columns(fits[0])

    @pytest.mark.parametrize("m", [1, 33, 65, 257])
    def test_accuracy_driven_fit_matches_oracle(self, m):
        rng = np.random.default_rng(330 + m)
        tgt = rng.random((4, m))
        cb = rng.standard_normal((4, 64))
        rel = sa.threshold(12)
        stop_sq = np.array([rel * float(t @ t) for t in tgt.T])
        fits = wiring._fit_columns(tgt, cb, 96, stop_sq)
        assert _fits(fits) == [greedy_fit_oracle(tgt[:, k], cb, 96,
                                                 stop_sq[k])
                               for k in range(m)]

    def test_adaptive_decompose_matches_oracle(self):
        rng = np.random.default_rng(335)
        tgt = rng.random((4, 65))
        codebook = sa.make_codebook("self-designing", 4, 65, seed=5,
                                    aux="gaussian")
        cb = codebook.dense()
        rel = sa.threshold(12)
        plan = sa.decompose(tgt, codebook, sa.StageSchedule.adaptive(12, 96))
        assert list(columns(plan.stages[0])) == [
            greedy_fit_oracle(t, cb, 96, rel * float(t @ t))[0]
            for t in tgt.T]

    def test_zero_codebook_columns(self):
        # the [I 0] selector a self-designing codebook starts from
        rng = np.random.default_rng(340)
        tgt = rng.standard_normal((4, 40))
        cb = np.zeros((4, 40))
        cb[:, :4] = np.eye(4)
        for steps in (4, 9):
            # past 4 steps the support covers every usable column
            fits = wiring._fit_columns(tgt, cb, steps)
            assert _fits(fits) == [greedy_fit_oracle(tgt[:, k], cb, steps)
                                   for k in range(40)]
            assert all(j < 4 for col in columns(fits[0]) for j, _ in col)
        empty = wiring._fit_columns(tgt, np.zeros((4, 8)), 4)
        assert all(col == () and trace == () for col, _, trace in _fits(empty))

    def test_duplicate_columns_tie_break(self):
        rng = np.random.default_rng(341)
        base = rng.standard_normal((3, 6))
        cb = np.concatenate([base, base, base[:, ::-1]], axis=1)
        tgt = rng.standard_normal((3, 33))
        fits = wiring._fit_columns(tgt, cb, 4)
        assert _fits(fits) == [greedy_fit_oracle(tgt[:, k], cb, 4)
                               for k in range(33)]

    def test_table1_chain_matches_oracle(self):
        rng = np.random.default_rng(342)
        tgt = rng.standard_normal((16, 256))
        codebook = sa.make_codebook("self-designing", 16, 256, target=tgt,
                                    aux="target")
        plan = sa.decompose(tgt, codebook,
                            sa.StageSchedule.fixed([1], target_bits=16,
                                                   max_stages=96))
        eff = codebook.dense()
        for stage in plan.stages:
            assert list(columns(stage)) == [
                greedy_fit_oracle(tgt[:, k], eff, 2)[0] for k in range(256)]
            ref = advance_effective_oracle(eff, stage)
            assert same_bits(advance_effective(eff, stage), ref)
            eff = ref
        assert plan.n_stages > 20

    def test_support_entry_with_the_largest_bound(self):
        # correlated columns: a support entry's rounded coefficient leaves
        # the largest bound u**2 / |b|**2 and is picked again
        rng = np.random.default_rng(343)
        cb = rng.standard_normal((3, 4))
        cb[:, 1] = cb[:, 0] + 0.3 * cb[:, 1]
        tgt = rng.standard_normal((3, 40))
        norms = np.einsum("nk,nk->k", cb, cb)
        seen = 0
        for t in tgt.T:
            for steps in range(6):
                entries = dict(greedy_fit_oracle(t, cb, steps)[0])
                after = dict(greedy_fit_oracle(t, cb, steps + 1)[0])
                w = np.array([entries[k].value if k in entries else 0.0
                              for k in range(4)])
                u = cb.T @ (t - cb @ w)
                top = int(np.argmax(u * u / norms))
                seen += top in entries and after.get(top) != entries[top]
        assert seen >= 10
        fits = wiring._fit_columns(tgt, cb, 6)
        assert _fits(fits) == [greedy_fit_oracle(t, cb, 6) for t in tgt.T]

    def test_many_steps_widen_the_records(self):
        # more steps than the kernel first makes room for
        rng = np.random.default_rng(344)
        cb = rng.standard_normal((24, 48))
        tgt = rng.standard_normal((24, 5))
        fits = wiring._fit_columns(tgt, cb, 40)
        assert max(len(trace) for _, _, trace in _fits(fits)) > 24
        assert _fits(fits) == [greedy_fit_oracle(t, cb, 40) for t in tgt.T]

    def test_trace_is_nan_past_each_rows_steps(self):
        # the records widen past their first 8 steps, and rows stop apart
        rng = np.random.default_rng(345)
        cb = rng.standard_normal((12, 30))
        tgt = rng.standard_normal((12, 20))
        rel = [sa.threshold(int(q)) for q in rng.integers(2, 12, 20)]
        stop_sq = rel * np.einsum("nm,nm->m", tgt, tgt)
        fits = [wiring._fit_columns(tgt, cb, 30, stop_sq) for _ in range(2)]
        assert fits[0][3].tobytes() == fits[1][3].tobytes()
        _, _, steps, trace = fits[0]
        assert trace.shape[1] > 8 and len(set(steps.tolist())) > 3
        for row, n in zip(trace, steps):
            assert not np.isnan(row[:n]).any() and np.isnan(row[n:]).all()

    @pytest.mark.parametrize("usable", [[0], [6], [0, 1], [2, 7], [1, 4, 6]])
    def test_few_usable_columns(self, usable):
        # the runner-up, and once the support covers every usable column
        # top too, land on a column already set aside; a column that stops
        # short of the step budget with every usable column picked ran a
        # step with nothing left off the support
        rng = np.random.default_rng(346)
        cb = np.zeros((3, 8))
        cb[:, usable] = rng.standard_normal((3, len(usable)))
        tgt = rng.standard_normal((3, 30))
        steps = len(usable) + 3
        fits = wiring._fit_columns(tgt, cb, steps)
        assert _fits(fits) == [greedy_fit_oracle(t, cb, steps) for t in tgt.T]
        assert any(len(col) == len(usable) and n < steps
                   for col, n in zip(columns(fits[0]), fits[2]))

    def test_support_screen_skips_entries_a_repick_cannot_beat(self):
        # correlated column pairs: support entries are picked again, and
        # the screen still scores only the support entries whose bound can
        # reach the best of top and the runner-up
        rng = np.random.default_rng(347)
        cb = rng.standard_normal((6, 32))
        cb[:, 1::2] = cb[:, ::2] + 0.3 * cb[:, 1::2]
        tgt = rng.standard_normal((6, 40))
        scored, plain = [], wiring._score

        def score(u, w, n, r_sq):
            # support entries are scored at their weights, the rest at 0
            if np.ndim(w):
                scored.append(np.size(w))
            return plain(u, w, n, r_sq)

        with mock.patch.object(wiring, "_score", score):
            fits = wiring._fit_columns(tgt, cb, 8)
        oracle = [greedy_fit_oracle(t, cb, 8) for t in tgt.T]
        assert _fits(fits) == oracle
        assert sum(len(trace) > len(col) for col, _, trace in oracle) > 0
        positions = sum(t for n in fits[2].tolist() for t in range(n))
        assert 0 < sum(scored) < positions / 4


@st.composite
def _fit_cases(draw):
    """A codebook of copies of a few small-integer columns, up to sign and
    a power of two, and zero columns, and targets that are random or exact
    power-of-two combinations of those columns (exact score ties and zero
    residuals), scaled near 2**60 or 2**-60, where clipping to [EXP_MIN,
    EXP_MAX] takes the rounded coefficient far from its least-squares
    value, and where the screen over one column per class of copies gives
    way to the full screen.  A chunk size
    of a few rows makes the live columns span several chunks that shrink
    mid-fit, with survivors of the screen in some chunks and not others,
    and more steps than usable columns put the largest bound on the
    support."""
    n = draw(st.integers(1, 4))
    ints = st.integers(-3, 3)
    base = np.array(draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                                  min_size=1, max_size=4)), dtype=float).T
    # copies up to sign and a power of two, often three or more of one
    # column, and negated zeros
    factor = st.sampled_from([1.0, -1.0, 0.5, -0.25, 2.0, -8.0, 2.0 ** -20,
                              0.0])
    copies = draw(st.lists(st.tuples(st.integers(0, base.shape[1] - 1),
                                     factor),
                           min_size=1, max_size=12))
    cb = np.stack([base[:, i] * f for i, f in copies], axis=1)
    m = draw(st.integers(1, 8))
    tgt = np.empty((n, m))
    for c in range(m):
        if draw(st.booleans()):
            tgt[:, c] = draw(st.lists(st.floats(-4, 4), min_size=n,
                                      max_size=n))
        else:
            coef = draw(st.lists(st.integers(-3, 3).map(lambda e: 2.0 ** e),
                                 min_size=cb.shape[1],
                                 max_size=cb.shape[1]))
            tgt[:, c] = cb @ (np.array(coef) *
                              draw(st.lists(st.sampled_from([0, 1, -1]),
                                            min_size=cb.shape[1],
                                            max_size=cb.shape[1])))
    tgt *= 2.0 ** draw(st.sampled_from([0, 56, 60, 62, -56, -60, -62]))
    stop_sq = None
    if draw(st.booleans()):
        rel = sa.threshold(draw(st.integers(2, 20)))
        stop_sq = rel * np.einsum("nm,nm->m", tgt, tgt)
    chunk = draw(st.sampled_from([1, 2, 3, wiring._CHUNK]))
    return tgt, cb, draw(st.integers(1, 10)), stop_sq, chunk


# Falsifying examples of a kernel that compared a best-so-far score from
# the first correlation product with survivors' scores from the second: each
# codebook holds identical columns, and the kernel picked the larger index
# of a pair the oracle scores as an exact tie.
@settings(max_examples=400, deadline=None)
@given(_fit_cases())
@example((np.array([[0.0, 1.0, 1.0, 1.0, 0.0, 0.0, -2.0],
                    [0.0, -2.0, -2.0, -2.0, 0.0, 0.0, -1.8080725195511707],
                    [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
                    [1.0, 3.0, 3.0, 3.0, 1.0, 0.0, 2.0751369203593075]]),
          np.array([[0.0] * 8 + [1.0, 1.0], [0.0] * 8 + [-2.0, -2.0],
                    [0.0] * 10, [0.0] * 7 + [1.0, 3.0, 3.0]]),
          1, None, 3))
@example((np.array([[0.0, 0.0, 3.0], [1.0, 0.0, 1.0],
                    [0.0, 0.0, -6.743707340325353e-05], [0.0, 0.0, 0.0]]),
          np.array([[3.0, 2.0, 2.0], [0.0, -1.0, -1.0], [-3.0, 1.0, 1.0],
                    [0.0, 0.0, 0.0]]),
          2, None, wiring._CHUNK))
@example((np.array([[4.0, 1.0, 0.99999], [-2.0, 0.0, 0.99999]]),
          np.array([[1.0, 1.0, 1.0, 1.0, 0.0, 3.0, 3.0, 1.0],
                    [-1.0, -1.0, -1.0, -1.0, 1.0, -1.0, -1.0, -1.0]]),
          2, None, 2))
# Ties in exact arithmetic.  The first target column against this
# codebook ties columns 0 and 4: gemv scores round apart towards column
# 4, the per-pair ones towards column 0, the kernel's pick.  In the second,
# column 2's second step ties column 1 with columns 3 to 9, and every
# per-pair score rounds the tie apart towards column 3: an oracle that
# settled exact ties by the smallest index picked column 1.
@example((np.array([[1.974956489855447, 0.0, 0.0, 0.0, -2.0],
                    [1.974956489855447, 0.0, 0.0, 0.0, -3.0]]),
          np.array([[-2.0, -2.0, -2.0, -2.0, -3.0],
                    [-3.0, -3.0, -3.0, -3.0, -2.0]]),
          1, None, 2))
@example((np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 3.5],
                    [0.0, 0.0, -0.3571684915504525]]),
          np.array([[0.0, 0.0, -1.0] + [2.0] * 7,
                    [0.0, -2.0, -3.0] + [-2.0] * 7,
                    [0.0, -3.0, 3.0] + [-3.0] * 7]),
          2, None, 1))
def test_fit_columns_equal_the_oracle(case):
    tgt, cb, steps, stop_sq, chunk = case
    with mock.patch.object(wiring, "_CHUNK", chunk):
        fits = wiring._fit_columns(tgt, cb, steps, stop_sq)
    assert _fits(fits) == [
        greedy_fit_oracle(tgt[:, k], cb, steps,
                          None if stop_sq is None else stop_sq[k])
        for k in range(tgt.shape[1])]


_BOUNDS = wiring._bounds


class _Widths:
    """Records, through ``mock.patch.object(wiring, "_bounds", spy)``, the
    width of the screen (its float32 unit columns) at every call."""

    def __init__(self):
        self.widths = []

    def __call__(self, r, r_sq, unit, work):
        self.widths.append(unit.shape[1])
        return _BOUNDS(r, r_sq, unit, work)


def _class_count(cb):
    """The number of classes of nonzero columns of ``cb`` equal up to sign
    and a power of two, in exact arithmetic."""
    keys = set()
    for b in cb.T:
        nz = [float(v) for v in b if v != 0.0]
        if nz:
            # scaled by the sign and power of two of the first nonzero entry
            scale = Fraction(2) ** math.frexp(abs(nz[0]))[1] * (
                1 if nz[0] > 0 else -1)
            keys.add(tuple(Fraction(float(v)) / scale for v in b))
    return len(keys)


def _planted_copies(seed, n, classes, m):
    """A codebook of ``classes`` random columns of length ``n``, each
    three to five times, scaled by signs and powers of two from 2**-3 to
    2**3, some entries zero (so negated copies hold -0.0), in shuffled
    order; and ``m`` targets, half random and half exact power-of-two
    combinations of the base columns."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, classes))
    base[rng.random((n, classes)) < 0.3] = 0.0
    pick = np.repeat(np.arange(classes), rng.integers(3, 6, classes))
    scale = rng.choice([-1.0, 1.0], pick.size) * 2.0 ** rng.integers(
        -3, 4, pick.size)
    cb = (base[:, pick] * scale)[:, rng.permutation(pick.size)]
    tgt = rng.standard_normal((n, m))
    half = m // 2
    tgt[:, :half] = base @ (rng.choice([0.0, 1.0, -1.0], (classes, half))
                            * 2.0 ** rng.integers(-2, 3, (classes, half)))
    return tgt, cb


def _self_design_stage2(n, k):
    """Self-design's second stage as ``fit_stages`` runs it on the
    Gaussian ``default_rng([n, k])`` auxiliary target: the target and the
    codebook ``[I 0] B1``."""
    aux = np.random.default_rng([n, k]).standard_normal((n, k))
    stage = sa.fit_stage(aux, np.eye(n, k), 1)
    return aux, advance_effective(np.eye(n, k), stage)


class TestCopies:
    """The screen runs over one column per class of copies (columns equal
    up to sign and a power of two), and every fit stays the oracle's."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, wiring._CHUNK])
    @pytest.mark.parametrize("seed, n", [(0, 1), (1, 2), (2, 5), (3, 16)])
    def test_planted_copies_fit_like_the_oracle(self, seed, n, chunk):
        tgt, cb = _planted_copies(seed, n, 6, 12)
        widths = _Widths()
        with mock.patch.object(wiring, "_CHUNK", chunk), \
                mock.patch.object(wiring, "_bounds", widths):
            fits = wiring._fit_columns(tgt, cb, 6)
        assert _fits(fits) == [greedy_fit_oracle(t, cb, 6) for t in tgt.T]
        # one column per class, until the residual of an exact combination
        # falls below _CLIP_LOW and every column is screened
        assert widths.widths[0] == _class_count(cb) < cb.shape[1]
        assert set(widths.widths) <= {_class_count(cb), cb.shape[1]}

    @pytest.mark.parametrize("chunk", [1, 2, 3, wiring._CHUNK])
    @pytest.mark.parametrize("n, k", [(3, 64), (2, 32)])
    def test_support_siblings(self, n, k, chunk):
        # a copy on the support leaves its class's weight-0 candidate to
        # the class's next column: scoring the class's first column alone
        # changed these fits
        tgt, cb = _self_design_stage2(n, k)
        for steps in (2, 5):
            with mock.patch.object(wiring, "_CHUNK", chunk):
                fits = wiring._fit_columns(tgt, cb, steps)
            assert _fits(fits) == [greedy_fit_oracle(t, cb, steps)
                                   for t in tgt.T]
        # some column of the fit holds two copies of one column
        assert any(_class_count(cb[:, [j for j, _ in col]]) < len(col)
                   for col in columns(fits[0]))
        with mock.patch.object(wiring, "_off_support",
                               lambda k, sup, nxt: np.full(k.size, -1)):
            assert _fits(wiring._fit_columns(tgt, cb, 5)) != _fits(fits)

    def test_a_weight_clipped_at_the_top_screens_every_column(self):
        # column 0's weight clips at 2**63, while column 3, a copy twice
        # its size, takes 2**63 and leaves no residual
        tgt, cb = np.array([[0.0, 2.0 ** 64, 0.0, 0.0]]), np.array(
            [[1.0, 1.0, 1.0, 2.0]])
        oracle = [greedy_fit_oracle(t, cb, 2) for t in tgt.T]
        assert oracle[1][0] == ((3, SignedPow2(1, 63)),)
        widths = _Widths()
        with mock.patch.object(wiring, "_bounds", widths):
            assert _fits(wiring._fit_columns(tgt, cb, 2)) == oracle
        assert set(widths.widths) == {4}
        with mock.patch.object(wiring, "_CLIP_HIGH", np.inf):
            assert _fits(wiring._fit_columns(tgt, cb, 2)) != oracle

    def test_a_weight_clipped_at_the_bottom_screens_every_column(self):
        # after the first step the residual is 0.6 * 2**-64 on row 0: the
        # weights of columns 0 and 1 clip up to 2**-64, and column 2, half
        # column 0, takes 2**-64 and leaves the least residual
        x = 0.6 * 2.0 ** -64
        tgt = np.array([[x], [1.0]])
        cb = np.array([[1.0, 2.0, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0]])
        oracle = [greedy_fit_oracle(t, cb, 3) for t in tgt.T]
        assert [j for j, _ in oracle[0][0]] == [2, 3]
        widths = _Widths()
        with mock.patch.object(wiring, "_bounds", widths):
            assert _fits(wiring._fit_columns(tgt, cb, 3)) == oracle
        # two classes at the first step, every column from the second on
        assert widths.widths[:2] == [2, 4]
        with mock.patch.object(wiring, "_CLIP_LOW", 0.0):
            assert _fits(wiring._fit_columns(tgt, cb, 3)) != oracle

    @pytest.mark.parametrize("place_b, tiny, place_sum, merged", [
        (-473, 67, -1010, True), (-473, 68, -1011, False),
        (-474, 0, -945, False)])
    def test_copies_merge_only_where_their_scores_are_exact(
            self, place_b, tiny, place_sum, merged):
        # near subnormals a copy's score may round apart from its class's:
        # copies are merged only while the finest binary place of a
        # codebook entry is 2**-473 or above, and those of a target and a
        # codebook entry sum to -1010 or above; one target entry, 2**-tiny
        # times the scale, sets the target's finest place
        rng = np.random.default_rng(9)
        base = np.array([[1.0, 0.5, 1.0], [0.5, -1.0, 0.0], [0.0, 0.25, 1.0]])
        cb = base[:, [0, 1, 2, 0, 1, 2, 0]] * np.array(
            [1.0, 1.0, 1.0, -2.0, 0.5, -4.0, 0.5])
        scale = 2.0 ** (place_b - wiring._quantum(cb))
        tgt = rng.integers(1, 8, (3, 6)) * rng.choice([-1.0, 1.0], (3, 6))
        tgt[0, 0] = 2.0 ** -tiny
        cb, tgt = cb * scale, tgt * scale
        assert wiring._quantum(cb) == place_b
        assert wiring._quantum(tgt) + place_b == place_sum
        widths = _Widths()
        with mock.patch.object(wiring, "_bounds", widths):
            fits = wiring._fit_columns(tgt, cb, 4)
        assert _fits(fits) == [greedy_fit_oracle(t, cb, 4) for t in tgt.T]
        assert widths.widths[0] == (3 if merged else 7)

    def test_self_design_screens_one_column_per_class(self):
        # the second stage of the 16x1024 Table-1 cell of the benchmark at
        # seed 0 fits over 438 classes; a codebook without copies keeps
        # every column, so a lost gain cannot pass unseen
        aux = np.random.default_rng([0, 1, 0]).standard_normal((16, 1024))
        stage = sa.fit_stage(aux, np.eye(16, 1024), 1)
        cb = advance_effective(np.eye(16, 1024), stage)
        widths = _Widths()
        with mock.patch.object(wiring, "_bounds", widths):
            sa.fit_stage(aux, cb, 1)
        assert set(widths.widths) == {_class_count(cb)} == {438}
        gauss = np.random.default_rng(5).standard_normal((16, 1024))
        widths = _Widths()
        with mock.patch.object(wiring, "_bounds", widths):
            sa.fit_stage(aux, gauss, 1)
        assert set(widths.widths) == {1024}


def _near_ties(seed, n, k, m):
    """A codebook of signed and halved copies of three small-integer
    columns of length ``n``, and ``m`` targets on their span, some moved
    off it by 1e-3 steps: scores tie exactly or nearly."""
    rng = np.random.default_rng(seed)
    base = rng.integers(-3, 4, (n, 3)).astype(float)
    cb = base[:, rng.integers(0, 3, k)] * rng.choice([1.0, -1.0, 0.5], k)
    tgt = base @ rng.integers(-2, 3, (3, m)).astype(float)
    tgt += rng.integers(-2, 3, (n, m)) * rng.choice([0.0, 1e-3], m)
    return tgt, cb


@st.composite
def _batch_cases(draw):
    """A fit case, at column lengths and widths where OpenBLAS sums a row
    of a matrix product differently with the rows beside it (``K`` of 3 or
    257 with ``N`` of 16 or more) or from ``_fit_cases``, and a nonempty
    selection of its target columns in some order."""
    if draw(st.booleans()):
        tgt, cb, steps, _, chunk = draw(_fit_cases())
    else:
        seed = draw(st.integers(0, 2 ** 32 - 1))
        n, k = draw(st.sampled_from([16, 17, 24])), draw(st.sampled_from(
            [3, 5, 257]))
        m = draw(st.integers(1, 24))
        if draw(st.booleans()):
            rng = np.random.default_rng(seed)
            tgt, cb = rng.standard_normal((n, m)), rng.standard_normal((n, k))
        else:
            tgt, cb = _near_ties(seed, n, k, m)
        steps = draw(st.integers(1, 6))
        chunk = draw(st.sampled_from([1, 3, wiring._CHUNK]))
    m = tgt.shape[1]
    keep = draw(st.permutations(range(m)))[:draw(st.integers(1, m))]
    return tgt, cb, steps, chunk, keep


# A case where the column-by-column fit and the whole stage picked apart
# while scores came from rows of a shared matrix product (column 1 here).
@settings(max_examples=200, deadline=None)
@given(_batch_cases())
@example((*_near_ties(0, 16, 5, 8), 3, wiring._CHUNK, [7, 1, 0]))
def test_a_columns_fit_does_not_depend_on_its_batch(case):
    # every score comes from the candidate's own dot product, so a column
    # fits the same alone, in any order and beside any other columns
    tgt, cb, steps, chunk, keep = case
    with mock.patch.object(wiring, "_CHUNK", chunk):
        whole = _fits(wiring._fit_columns(tgt, cb, steps))
        part = _fits(wiring._fit_columns(tgt[:, keep], cb, steps))
        stage = columns(sa.fit_stage(tgt, cb, steps - 1))
    assert part == [whole[k] for k in keep]
    assert stage == tuple(col for col, _, _ in whole)
    # each column fitted on its own, at the default chunk
    assert [fit_one(tgt[:, k], cb, steps - 1)
            for k in range(tgt.shape[1])] == whole


class _Spy:
    """Counts, through ``mock.patch.object(wiring, name, spy)``, the rows
    the kernel passes to ``_bounds`` and the rows ``_proven_first``
    proves."""

    def __init__(self, fn):
        self.fn, self.rows, self.proven, self.calls = fn, 0, 0, 0
        self.bounds = fn is wiring._bounds

    def __call__(self, *args):
        out = self.fn(*args)
        self.calls += 1
        if self.bounds:
            self.rows += args[0].shape[0]
        else:
            self.proven += int(out[0].sum())
        return out


def _spied_fit(tgt, cb, steps, cos_max, prove=True):
    """``_fit_columns`` with ``cos_max``, and its two spies; ``prove=False``
    proves no row, so every row takes the full scan."""
    bounds = _Spy(wiring._bounds)
    first = _Spy(wiring._proven_first if prove else
                 lambda *a: (np.zeros(a[0].shape[0], bool), a[0][:, 0]))
    with mock.patch.object(wiring, "_bounds", bounds), \
            mock.patch.object(wiring, "_proven_first", first):
        fits = wiring._fit_columns(tgt, cb, steps, cos_max=cos_max)
    return fits, bounds, first


@st.composite
def _near_cases(draw):
    """Targets and a codebook equal to them up to a small perturbation, so
    that most first picks are proven; a few rows per chunk spread them over
    several chunks."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, k = draw(st.integers(2, 12)), draw(st.integers(1, 80))
    tgt = rng.standard_normal((n, k))
    scale = 10.0 ** draw(st.integers(-9, -1))
    cb = tgt + scale * rng.standard_normal((n, k))
    chunk = draw(st.sampled_from([1, 3, wiring._CHUNK]))
    return tgt, cb, draw(st.integers(1, 4)), chunk


class TestProvenFirstPick:
    """A first pick proven from ``cos_max`` gives the fit of the full
    scan, and the proof declines wherever it cannot hold."""

    @settings(max_examples=150, deadline=None)
    @given(_near_cases())
    def test_fits_equal_the_oracle(self, case):
        tgt, cb, steps, chunk = case
        with mock.patch.object(wiring, "_CHUNK", chunk):
            fits, _, first = _spied_fit(tgt, cb, steps,
                                        wiring._max_cosines(tgt))
        assert first.calls == (wiring._max_gap(tgt, cb) < 0.5)
        assert _fits(fits) == [greedy_fit_oracle(tgt[:, k], cb, steps)
                               for k in range(tgt.shape[1])]

    def test_most_first_picks_are_proven(self):
        rng = np.random.default_rng(360)
        tgt = rng.standard_normal((16, 300))
        cb = tgt + 1e-3 * rng.standard_normal((16, 300))
        cos_max = wiring._max_cosines(tgt)
        fits, bounds, first = _spied_fit(tgt, cb, 3, cos_max)
        full, all_rows, _ = _spied_fit(tgt, cb, 3, cos_max, prove=False)
        assert first.proven > 250
        # a proven row skips both passes of step 1 and nothing else
        assert all_rows.rows - bounds.rows == first.proven
        assert _fits(fits) == _fits(full) == [
            greedy_fit_oracle(t, cb, 3) for t in tgt.T]
        assert columns(sa.fit_stage(tgt, cb, 2, cos_max=cos_max)) == \
            columns(sa.fit_stage(tgt, cb, 2))

    def _declines(self, tgt, cb, steps=3):
        fits, bounds, first = _spied_fit(tgt, cb, steps,
                                         np.zeros(tgt.shape[1]))
        assert first.calls == 0
        assert _fits(fits) == [greedy_fit_oracle(t, cb, steps)
                               for t in tgt.T]

    @pytest.mark.parametrize("gap", [0.5, 1.0, 3.0])
    def test_declines_at_a_gap_of_one_half_or_more(self, gap):
        rng = np.random.default_rng(361)
        tgt = rng.standard_normal((6, 40))
        cb = tgt.copy()
        cb[:, 7] = (1.0 - gap) * tgt[:, 7]
        assert wiring._max_gap(tgt, cb) == pytest.approx(gap)
        self._declines(tgt, cb)

    def test_declines_on_a_zero_target_column(self):
        rng = np.random.default_rng(362)
        tgt = rng.standard_normal((6, 40))
        tgt[:, 3] = 0.0
        self._declines(tgt, tgt + 1e-3 * rng.standard_normal((6, 40)))

    def test_declines_below_the_norm_floor(self):
        # squared column norms near 2**-410, below _NORM_FLOOR
        rng = np.random.default_rng(366)
        tgt = rng.standard_normal((6, 40)) * 2.0 ** -205
        assert np.einsum("nk,nk->k", tgt, tgt).max() < wiring._NORM_FLOOR
        self._declines(tgt, tgt * (1.0 + 1e-3 * rng.standard_normal((6, 40))))

    def test_declines_on_a_zero_codebook_column(self):
        rng = np.random.default_rng(363)
        tgt = rng.standard_normal((6, 40))
        cb = tgt + 1e-3 * rng.standard_normal((6, 40))
        cb[:, 5] = 0.0
        self._declines(tgt, cb)

    def test_declines_when_target_and_codebook_widths_differ(self):
        rng = np.random.default_rng(364)
        tgt = rng.standard_normal((6, 40))
        cb = np.concatenate([tgt, rng.standard_normal((6, 3))], axis=1)
        self._declines(tgt, cb)
        self._declines(tgt, cb[:, :30])

    def test_proves_no_row_of_a_duplicate_target_column(self):
        # a second copy of a target column makes its cos_max 1: neither row
        # of the pair can be proven
        rng = np.random.default_rng(365)
        tgt = rng.standard_normal((6, 40))
        tgt[:, 9] = tgt[:, 8]
        cb = tgt + 1e-3 * rng.standard_normal((6, 40))
        cos_max = wiring._max_cosines(tgt)
        assert cos_max[8] == cos_max[9] == pytest.approx(1.0)
        fits, _, first = _spied_fit(tgt, cb, 3, cos_max)
        assert first.calls == 1 and 0 < first.proven <= 38
        assert _fits(fits) == [greedy_fit_oracle(t, cb, 3) for t in tgt.T]

    def test_cos_max_must_match_the_target(self):
        with pytest.raises(sa.DimensionError, match="cos_max"):
            sa.fit_stage(np.eye(3), np.eye(3), 1, cos_max=np.zeros(2))

    def test_max_cosines(self):
        tgt = np.array([[1.0, 1.0, 0.0, 2.0], [0.0, 1.0, 1.0, 0.0]])
        s = 2.0 ** -0.5
        assert wiring._max_cosines(tgt) == pytest.approx([1.0, s, s, 1.0])
        assert wiring._max_cosines(tgt[:, :1]) == [0.0]

    def test_table1_design_proves_most_first_picks(self):
        # the first target of the Table-1 benchmark workload at seed 0:
        # later stages take the proven pick for 80% of their columns
        tgt = np.random.default_rng([0, 1, 0]).standard_normal((16, 1024))
        codebook = sa.make_codebook("self-designing", 16, 1024, target=tgt,
                                    aux="target")
        schedule = sa.StageSchedule.fixed([1], target_bits=16, max_stages=96)
        bounds, first = _Spy(wiring._bounds), _Spy(wiring._proven_first)
        with mock.patch.object(wiring, "_bounds", bounds), \
                mock.patch.object(wiring, "_proven_first", first):
            plan = sa.decompose(tgt, codebook, schedule)
        later = 1024 * (plan.n_stages - 1)
        assert plan.n_stages == 28 and first.proven > 0.78 * later
        all_rows = _Spy(wiring._bounds)
        with mock.patch.object(wiring, "_bounds", all_rows), \
                mock.patch.object(wiring, "_max_gap",
                                  lambda *a: float("inf")):
            full = sa.decompose(tgt, codebook, schedule)
        assert all_rows.rows - bounds.rows == first.proven
        assert [columns(m) for m in plan.stages] == \
            [columns(m) for m in full.stages]


@pytest.mark.parametrize("workload, most", [("table2", 28_000),
                                             ("table1", 45_000)])
def test_few_rows_are_rescanned(workload, most):
    # the first target of each design workload of the benchmark at seed 0,
    # codebook design included: a row takes the (chunk x K) pass again only
    # when the largest bound left after top and the runner-up can reach the
    # best score found (table2 passed 31,729 rows and table1 48,427 when
    # only top was scored and the support always was)
    bounds = _Spy(wiring._bounds)
    with mock.patch.object(wiring, "_bounds", bounds):
        if workload == "table2":
            rng = np.random.default_rng([0, 2, 0])
            tgt = rng.random((10, 1024))
            codebook = sa.make_codebook("self-designing", 10, 1024,
                                        seed=int(rng.integers(2 ** 62)),
                                        aux="gaussian")
            schedule = sa.StageSchedule.adaptive(16, max_stages=96)
        else:
            tgt = np.random.default_rng([0, 1, 0]).standard_normal((16, 1024))
            codebook = sa.make_codebook("self-designing", 16, 1024,
                                        target=tgt, aux="target")
            schedule = sa.StageSchedule.fixed([1], target_bits=16,
                                              max_stages=96)
        sa.decompose(tgt, codebook, schedule)
    assert bounds.rows < most


class TestExtremeScales:
    """The screen's bounds are squared products with unit columns, so they
    neither underflow nor overflow at scales the fit accepts."""

    @staticmethod
    def _draws():
        rng = np.random.default_rng(0)
        return rng.standard_normal((5, 40)), rng.standard_normal((5, 24))

    def test_tiny_scales_fit_like_the_oracle(self):
        # u * u of the unscaled correlations underflowed to 0 here, every
        # bound read 0 and the screen skipped the winning column
        tgt, cb = (a * 2.0 ** -290 for a in self._draws())
        assert columns(sa.fit_stage(tgt, cb, 1)) == tuple(
            greedy_fit_oracle(t, cb, 2)[0] for t in tgt.T)

    @pytest.mark.parametrize("t_exp, b_exp", [(300, 250), (0, -520)])
    def test_scales_fit_without_overflow(self, t_exp, b_exp):
        # the bound once overflowed here, with a RuntimeWarning, although
        # it is finite: u * u of the unscaled correlations at 2**300, and
        # 1 / norms at a codebook scale of 2**-520
        tgt, cb = self._draws()
        tgt, cb = tgt * 2.0 ** t_exp, cb * 2.0 ** b_exp
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stage = sa.fit_stage(tgt, cb, 1)
        assert columns(stage) == tuple(greedy_fit_oracle(t, cb, 2)[0]
                                       for t in tgt.T)


def _exact_bound(r, b):
    """``(r . b)**2 / (|b|**2 |r|**2)`` in exact rational arithmetic on the
    float64 entries of ``r`` and ``b``."""
    # every float64 is an integer multiple of 2**-1074
    r, b = ([int(Fraction(float(v)) * 2 ** 1074) for v in a] for a in (r, b))
    return Fraction(sum(x * y for x, y in zip(r, b)) ** 2,
                    sum(y * y for y in b) * sum(x * x for x in r))


@st.composite
def _bound_cases(draw):
    """A residual row and a few codebook columns of length ``N`` up to 512,
    at scales from 2**-300 to 2**300.  Entries may span more than 2**150,
    so that a row or column scaled to unit norm holds entries that flush to
    zero in float32, and the row may lie along a column, where its bound
    is close to 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, k = draw(st.integers(1, 512)), draw(st.integers(1, 4))
    r, cb = rng.standard_normal(n), rng.standard_normal((n, k))
    if draw(st.booleans()):
        r *= 2.0 ** rng.integers(-200, 1, n)
        cb *= 2.0 ** rng.integers(-200, 1, (n, k))
    if draw(st.booleans()):
        r = cb[:, 0] + 2.0 ** -draw(st.integers(10, 60)) * r
    r *= 2.0 ** draw(st.integers(-300, 300))
    cb *= 2.0 ** draw(st.integers(-300, 300))
    return r, cb


class TestFloat32Screen:
    """The screen's float32 bounds, relative to ``r_sq``, lie within its
    slack of their exact values, and the fit equals the oracle where that
    slack is widest."""

    @settings(max_examples=150, deadline=None)
    @given(_bound_cases())
    def test_bounds_lie_within_the_slack(self, case):
        r, cb = case
        # the unit columns as _fit_columns forms them
        cb_t = np.ascontiguousarray(cb.T)
        unit = (cb / np.sqrt(np.einsum("kn,kn->k", cb_t, cb_t))).astype(
            np.float32)
        work = np.empty((1, cb.shape[1]), dtype=np.float32)
        bound = wiring._bounds(r[None], np.vecdot(r, r)[None], unit, work)[0]
        slack = Fraction(wiring._margins(r.size)[1])
        for k in range(cb.shape[1]):
            assert abs(Fraction(float(bound[k])) - _exact_bound(r, cb[:, k])) \
                <= slack

    def test_slack_grows_with_the_column_length(self):
        slacks = [wiring._margins(n)[1] for n in (1, 16, 2048, 2 ** 23)]
        assert slacks == sorted(slacks) and slacks[0] < 2.0 ** -21
        # where the float32 error alone reaches 1, every column passes
        assert wiring._margins(2 ** 24)[1] == 2.0

    def test_a_slack_that_passes_every_column_keeps_the_fit(self):
        # support entries and top are masked out of the survivors even
        # when every bound passes the threshold
        tgt, cb = _near_ties(7, 6, 12, 10)
        with mock.patch.object(wiring, "_margins",
                               lambda n: ((n + 2) * 2.0 ** -50, 2.0)):
            fits = wiring._fit_columns(tgt, cb, 4)
        assert _fits(fits) == [greedy_fit_oracle(t, cb, 4) for t in tgt.T]


def _near_duplicates(seed, n, k, m):
    """A codebook of ``k`` columns of length ``n`` in pairs whose entries
    differ by about 2**-30 relative, below float32 resolution, so that both
    columns of a pair get equal float32 bounds but different float64
    scores; and ``m`` targets, each a power-of-two multiple of one column,
    where its bound meets the threshold, moved off it by steps of 0,
    2**-30 or 1e-3."""
    rng = np.random.default_rng(seed)
    cb = np.repeat(rng.standard_normal((n, (k + 1) // 2)), 2, axis=1)[:, :k]
    cb[:, 1::2] *= 1.0 + 2.0 ** -30 * rng.standard_normal((n, k // 2))
    tgt = cb[:, rng.integers(0, k, m)] * 2.0 ** rng.integers(-2, 3, m)
    tgt += rng.standard_normal((n, m)) * rng.choice([0.0, 2.0 ** -30, 1e-3],
                                                    m)
    return tgt, cb


@st.composite
def _long_column_cases(draw):
    """A near-duplicate fit case at a column length where the float32
    slack is widest."""
    tgt, cb = _near_duplicates(draw(st.integers(0, 2 ** 32 - 1)),
                               draw(st.sampled_from([512, 2048])),
                               draw(st.integers(2, 24)),
                               draw(st.integers(1, 6)))
    return tgt, cb, draw(st.integers(1, 4)), draw(
        st.sampled_from([1, 3, wiring._CHUNK]))


@settings(max_examples=60, deadline=None)
@given(_long_column_cases())
@example((*_near_duplicates(3, 2048, 8, 6), 3, wiring._CHUNK))
def test_long_columns_fit_like_the_oracle(case):
    tgt, cb, steps, chunk = case
    with mock.patch.object(wiring, "_CHUNK", chunk):
        fits = wiring._fit_columns(tgt, cb, steps)
    assert _fits(fits) == [greedy_fit_oracle(t, cb, steps) for t in tgt.T]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected(self, bad):
        rng = np.random.default_rng(350)
        tgt = rng.standard_normal((4, 8))
        cb = rng.standard_normal((4, 8))
        poisoned = tgt.copy()
        poisoned[1, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            sa.fit_stage(poisoned, cb, 1)
        with pytest.raises(ValueError, match="NaN or infinite"):
            sa.fit_stage(tgt, poisoned, 1)
        mailman = sa.make_codebook("mailman", 3, 8)
        for schedule in (sa.StageSchedule.fixed([1], target_bits=8),
                         sa.StageSchedule.adaptive(8)):
            with pytest.raises(ValueError, match="NaN or infinite"):
                sa.decompose(poisoned[:3], mailman, schedule)

    def test_overflowing_norm_rejected(self):
        rng = np.random.default_rng(351)
        tgt = rng.standard_normal((3, 8)) * 1e300
        mailman = sa.make_codebook("mailman", 3, 8)
        with pytest.raises(ValueError, match="power of two"):
            sa.decompose(tgt, mailman, sa.StageSchedule.fixed([1]))
        with pytest.raises(ValueError, match="power of two"):
            sa.fit_stage(tgt, mailman.dense(), 1)

    @pytest.mark.parametrize("t, b", [(1.0, 1e200), (1e154, 2e153)])
    def test_overflowing_scales_rejected(self, t, b):
        # a codebook norm or a correlation u that overflows would turn
        # scores into NaN
        tgt, cb = np.full((1, 1), t), np.full((1, 3), b)
        with pytest.raises(ValueError, match="powers of two"):
            sa.fit_stage(tgt, cb, 1)
