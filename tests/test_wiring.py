"""Greedy fitting: oracles, invariants, and the decomposition driver."""

import itertools
import json
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


def entries(fit):
    """A ``FitResult``'s coefficients as one column tuple."""
    return columns(fit.column)[0]


class TestFitColumn:
    def test_two_dim_example(self):
        fit = sa.fit_column(np.array([0.8, -0.3]), np.eye(2), 1)
        assert entries(fit) == ((0, SignedPow2(1, 0)), (1, SignedPow2(-1, -2)))
        assert fit.residual_sq == pytest.approx(0.0425, abs=1e-12)

    def test_exact_power_is_found(self):
        fit = sa.fit_column(np.array([0.5, 0.0]), np.eye(2), 0)
        assert entries(fit) == ((0, SignedPow2(1, -1)),)
        assert fit.residual_sq == 0.0

    def test_zero_target_early_stop(self):
        fit = sa.fit_column(np.zeros(3), np.ones((3, 4)), 2)
        assert entries(fit) == () and fit.steps == 0

    def test_duplicate_columns_tie_break(self):
        # both duplicates score identically on the first pick; the smaller
        # index wins, deterministically
        cb = np.array([[1.0, 1.0], [1.0, 1.0]])
        fit = sa.fit_column(np.array([0.9, 0.9]), cb, 0)
        assert [j for j, _ in entries(fit)] == [0]
        again = sa.fit_column(np.array([0.9, 0.9]), cb, 3)
        assert entries(again) == \
            entries(sa.fit_column(np.array([0.9, 0.9]), cb, 3))

    def test_zero_codebook_columns_skipped(self):
        cb = np.array([[0.0, 1.0], [0.0, 0.0]])
        fit = sa.fit_column(np.array([0.5, 0.0]), cb, 1)
        assert entries(fit) == ((1, SignedPow2(1, -1)),)

    def test_budget_bound(self):
        rng = np.random.default_rng(300)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(2, 12))
            s = int(rng.integers(0, 4))
            fit = sa.fit_column(rng.standard_normal(n),
                                rng.standard_normal((n, k)), s)
            assert len(entries(fit)) <= 1 + s

    def test_residual_monotone(self):
        rng = np.random.default_rng(301)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(2, 16))
            t = rng.standard_normal(n)
            fit = sa.fit_column(t, rng.standard_normal((n, k)), 6)
            seq = [float(t @ t)] + list(fit.trace)
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
            w = np.zeros(k)
            r_sq = float(t @ t)
            for step in range(3):
                fit = sa.fit_column(t, cb, step)
                w = np.zeros(k)
                for j, c in entries(fit):
                    w[j] = c.value
                best = r_sq
                cur = t - cb @ w
                # recompute from scratch at this sparsity, then try all
                # single changes on top of it
                cur_sq = float(cur @ cur)
                best = cur_sq
                for j, v in itertools.product(range(k), powers):
                    trial = w.copy()
                    trial[j] = v
                    d = t - cb @ trial
                    best = min(best, float(d @ d))
                nxt = sa.fit_column(t, cb, step + 1)
                assert nxt.residual_sq <= best + 1e-12

    def test_dimension_error(self):
        with pytest.raises(sa.DimensionError):
            sa.fit_column(np.zeros(3), np.zeros((2, 4)), 1)


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


def _fits(fits):
    stage, r_sq, steps, trace = fits
    traces = [tuple(tr[:n]) for tr, n in zip(trace.tolist(), steps.tolist())]
    return list(zip(columns(stage), r_sq.tolist(), traces))


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
        for k in (0, m - 1):
            fit = sa.fit_column(tgt[:, k], cb, 2)
            assert (entries(fit), fit.residual_sq, fit.trace) == \
                greedy_fit_oracle(tgt[:, k], cb, 3)

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
        codebook = sa.make_codebook("gaussian", 4, 65, seed=5)
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


@st.composite
def _fit_cases(draw):
    """A codebook of duplicate, negated, halved and zero copies of a few
    small-integer columns, and targets that are random or exact power-of-two
    combinations of those columns (exact score ties and zero residuals),
    scaled near 2**60 or 2**-60, where clipping to [EXP_MIN, EXP_MAX] takes
    the rounded coefficient far from its least-squares value.  A chunk size
    of a few rows makes the live columns span several chunks that shrink
    mid-fit, with survivors of the screen in some chunks and not others,
    and more steps than usable columns put the largest bound on the
    support."""
    n = draw(st.integers(1, 4))
    ints = st.integers(-3, 3)
    base = np.array(draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                                  min_size=1, max_size=4)), dtype=float).T
    copies = draw(st.lists(st.tuples(st.integers(0, base.shape[1] - 1),
                                     st.sampled_from([1.0, -1.0, 0.5, 0.0])),
                           min_size=1, max_size=10))
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
# The first target column against this codebook is an exact tie in real
# arithmetic: the kernel picks column 0 by the smallest-index rule, while
# the oracle's gemv scores round apart towards column 4.
@example((np.array([[1.974956489855447, 0.0, 0.0, 0.0, -2.0],
                    [1.974956489855447, 0.0, 0.0, 0.0, -3.0]]),
          np.array([[-2.0, -2.0, -2.0, -2.0, -3.0],
                    [-3.0, -3.0, -3.0, -3.0, -2.0]]),
          1, None, 2))
def test_fit_columns_equal_the_oracle(case):
    tgt, cb, steps, stop_sq, chunk = case
    with mock.patch.object(wiring, "_CHUNK", chunk):
        fits = wiring._fit_columns(tgt, cb, steps, stop_sq)
    assert _fits(fits) == [
        greedy_fit_oracle(tgt[:, k], cb, steps,
                          None if stop_sq is None else stop_sq[k])
        for k in range(tgt.shape[1])]


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
        with pytest.raises(ValueError, match="NaN or infinite"):
            sa.fit_column(poisoned[:, 2], cb, 1)
        with pytest.raises(ValueError, match="NaN or infinite"):
            sa.fit_column(tgt[:, 2], poisoned, 1)
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
        with pytest.raises(ValueError, match="power of two"):
            sa.fit_column(tgt[:, 0], mailman.dense(), 1)

    @pytest.mark.parametrize("t, b", [(1.0, 1e200), (1e154, 2e153)])
    def test_overflowing_scales_rejected(self, t, b):
        # a codebook norm or a correlation u that overflows would turn
        # scores into NaN
        tgt, cb = np.full((1, 1), t), np.full((1, 3), b)
        with pytest.raises(ValueError, match="powers of two"):
            sa.fit_stage(tgt, cb, 1)
        with pytest.raises(ValueError, match="powers of two"):
            sa.fit_column(tgt[:, 0], cb, 1)
