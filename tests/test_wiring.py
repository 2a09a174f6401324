"""Greedy fitting: oracles, invariants, and the decomposition driver."""

import itertools

import numpy as np
import pytest

import shiftadd as sa
from shiftadd import wiring
from shiftadd.pot import SignedPow2
from shiftadd.pow2matrix import advance_effective

from helpers import greedy_fit_oracle


class TestFitColumn:
    def test_two_dim_example(self):
        fit = sa.fit_column(np.array([0.8, -0.3]), np.eye(2), 1)
        assert fit.entries == ((0, SignedPow2(1, 0)), (1, SignedPow2(-1, -2)))
        assert fit.residual_sq == pytest.approx(0.0425, abs=1e-12)

    def test_exact_power_is_found(self):
        fit = sa.fit_column(np.array([0.5, 0.0]), np.eye(2), 0)
        assert fit.entries == ((0, SignedPow2(1, -1)),)
        assert fit.residual_sq == 0.0

    def test_zero_target_early_stop(self):
        fit = sa.fit_column(np.zeros(3), np.ones((3, 4)), 2)
        assert fit.entries == () and fit.steps == 0

    def test_duplicate_columns_tie_break(self):
        # both duplicates score identically on the first pick; the smaller
        # index wins, deterministically
        cb = np.array([[1.0, 1.0], [1.0, 1.0]])
        fit = sa.fit_column(np.array([0.9, 0.9]), cb, 0)
        assert [j for j, _ in fit.entries] == [0]
        again = sa.fit_column(np.array([0.9, 0.9]), cb, 3)
        assert again.entries == sa.fit_column(np.array([0.9, 0.9]), cb, 3).entries

    def test_zero_codebook_columns_skipped(self):
        cb = np.array([[0.0, 1.0], [0.0, 0.0]])
        fit = sa.fit_column(np.array([0.5, 0.0]), cb, 1)
        assert fit.entries == ((1, SignedPow2(1, -1)),)

    def test_budget_bound(self):
        rng = np.random.default_rng(300)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(2, 12))
            s = int(rng.integers(0, 4))
            fit = sa.fit_column(rng.standard_normal(n),
                                rng.standard_normal((n, k)), s)
            assert len(fit.entries) <= 1 + s

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
                for j, c in fit.entries:
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
        for k, col in enumerate(stage.columns):
            assert col == ((k, SignedPow2(1, 0)),)

    def test_budget_and_shape(self):
        rng = np.random.default_rng(304)
        tgt = rng.standard_normal((4, 10))
        cb = rng.standard_normal((4, 16))
        stage = sa.fit_stage(tgt, cb, 2)
        assert (stage.rows, stage.cols) == (16, 10)
        assert all(len(col) <= 3 for col in stage.columns)
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
            assert b.columns[k] == a.columns[p]


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


def _fits(fits):
    return [(f.entries, f.residual_sq, f.trace) for f in fits]


class TestBlockedKernel:
    """The blocked kernel equals the per-column loop it replaced, in
    entries, final residual and per-step trace."""

    @pytest.mark.parametrize("m", [1, 31, 32, 33, 65])
    def test_budgeted_fit_matches_oracle(self, m):
        rng = np.random.default_rng(320 + m)
        tgt = rng.standard_normal((5, m))
        cb = rng.standard_normal((5, 24))
        fits = wiring._fit_columns(tgt, cb, 3)
        assert _fits(fits) == [greedy_fit_oracle(tgt[:, k], cb, 3)
                               for k in range(m)]
        stage = sa.fit_stage(tgt, cb, 2)
        assert list(stage.columns) == [f.entries for f in fits]
        for k in (0, m - 1):
            fit = sa.fit_column(tgt[:, k], cb, 2)
            assert (fit.entries, fit.residual_sq, fit.trace) == \
                greedy_fit_oracle(tgt[:, k], cb, 3)

    @pytest.mark.parametrize("m", [1, 33, 65])
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
        assert list(plan.stages[0].columns) == [
            greedy_fit_oracle(t, cb, 96, rel * float(t @ t))[0]
            for t in tgt.T]

    def test_zero_codebook_columns(self):
        # the [I 0] selector a self-designing codebook starts from
        rng = np.random.default_rng(340)
        tgt = rng.standard_normal((4, 40))
        cb = np.zeros((4, 40))
        cb[:, :4] = np.eye(4)
        fits = wiring._fit_columns(tgt, cb, 4)
        assert _fits(fits) == [greedy_fit_oracle(tgt[:, k], cb, 4)
                               for k in range(40)]
        assert all(j < 4 for f in fits for j, _ in f.entries)
        empty = wiring._fit_columns(tgt, np.zeros((4, 8)), 4)
        assert all(f.entries == () and f.trace == () for f in empty)

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
            assert list(stage.columns) == [
                greedy_fit_oracle(tgt[:, k], eff, 2)[0] for k in range(256)]
            eff = advance_effective(eff, stage)
        assert plan.n_stages > 20


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
