"""Exact shift-add execution and the fixed-point baselines."""

from fractions import Fraction

import numpy as np
import pytest

import shiftadd as sa
from shiftadd.plan import reconstruct_exact
from shiftadd.pot import EXP_MAX, EXP_MIN, SignedPow2, align
from shiftadd.pow2matrix import UNWRITTEN, schedule, serve

from helpers import (cost_oracle, dyadic_apply_oracle, exact_matvec,
                     fraction_matvec, fraction_reconstruction, pow2matrix,
                     random_dyadic_vector, random_plan, synthetic_plan,
                     transpose, wide_mantissa_plan)


class TestApply:
    def test_mailman_unit_vectors(self):
        cb = sa.make_codebook("mailman", 3, 8)
        plan = sa.DecompositionPlan(3, 8, cb, ())
        dense = cb.dense()
        for k in range(8):
            x = [sa.Dyadic(0)] * 8
            x[k] = sa.Dyadic(1)
            y, _ = sa.apply(plan, x)
            assert [v.to_float() for v in y] == dense[:, k].tolist()

    def test_mailman_executed_additions(self):
        # by rows, factor t sums 2**t - 1 rows of two entries and one row
        # of 2**t: more pairwise additions than the 2**N - N - 1 counted
        for n in range(1, 13):
            plan = sa.DecompositionPlan(
                n, 1 << n, sa.make_codebook("mailman", n, 1 << n), ())
            assert sum(len(seg.source) - len(seg.starts)
                       for seg in plan.schedule.steps) == \
                2 ** (n + 1) - 2 * n - 2

    def test_matches_exact_reconstruction(self):
        rng = np.random.default_rng(500)
        for _ in range(25):
            plan, _ = random_plan(rng, max_cols=32, max_stages=4)
            x = random_dyadic_vector(rng, plan.n_cols)
            y, _ = sa.apply(plan, x)
            assert y == exact_matvec(plan, x)

    def test_zero_input_keeps_structural_counts(self):
        rng = np.random.default_rng(501)
        plan, _ = random_plan(rng, max_cols=16, max_stages=3)
        x = random_dyadic_vector(rng, plan.n_cols)
        _, cost_live = sa.apply(plan, x)
        y0, cost_zero = sa.apply(plan, [sa.Dyadic(0)] * plan.n_cols)
        assert not any(y0)
        assert cost_zero == cost_live

    def test_counts_match_cost_of(self):
        rng = np.random.default_rng(502)
        for _ in range(15):
            plan, _ = random_plan(rng, max_cols=32, max_stages=4)
            _, cost = sa.apply(plan, random_dyadic_vector(rng, plan.n_cols))
            ref = sa.cost_of(plan)
            assert cost.additions == ref.additions
            assert cost.shifts == ref.shifts
            assert cost.sign_changes == ref.sign_changes
            assert cost.per_stage == ref.per_stage

    def test_linearity_in_pow2_scalars(self):
        rng = np.random.default_rng(503)
        plan, _ = random_plan(rng, max_cols=16, max_stages=3)
        x = random_dyadic_vector(rng, plan.n_cols)
        z = random_dyadic_vector(rng, plan.n_cols)
        a, b = (1, 2), (-1, -1)  # (sign, exponent) power-of-two scalars
        mixed = [xi.times_pow2(*a) + zi.times_pow2(*b) for xi, zi in zip(x, z)]
        ym, _ = sa.apply(plan, mixed)
        yx, _ = sa.apply(plan, x)
        yz, _ = sa.apply(plan, z)
        for m, u, v in zip(ym, yx, yz):
            assert m == u.times_pow2(*a) + v.times_pow2(*b)

    def test_input_validation(self):
        plan = sa.DecompositionPlan(3, 8, sa.make_codebook("mailman", 3, 8), ())
        with pytest.raises(sa.DimensionError):
            sa.apply(plan, [sa.Dyadic(1)] * 7)
        with pytest.raises(TypeError):
            sa.apply(plan, [0.5] * 8)


class TestCompiledEngine:
    """The engine on the integer arrays equals the per-entry Dyadic loop
    in outputs and in every counter."""

    @staticmethod
    def _check(plan, x):
        y, cost = sa.apply(plan, x)
        y_ref, counts = dyadic_apply_oracle(plan, x)
        assert y == y_ref
        assert (cost.additions, cost.shifts, cost.sign_changes,
                cost.per_stage) == counts

    def test_random_plans(self):
        rng = np.random.default_rng(510)
        for _ in range(20):
            plan, _ = random_plan(rng, max_cols=32, max_stages=4)
            self._check(plan, random_dyadic_vector(rng, plan.n_cols))

    def test_synthetic_plans_over_mailman_and_two_sparse(self):
        rng = np.random.default_rng(511)
        kinds = set()
        for _ in range(20):
            plan = synthetic_plan(rng)
            kinds.add(plan.codebook.kind)
            self._check(plan, random_dyadic_vector(rng, plan.n_cols,
                                                   exp_range=40))
        assert kinds == {"mailman", "two-sparse"}

    def test_empty_columns_and_empty_stage(self):
        rng = np.random.default_rng(512)
        sparse = tuple(((k, SignedPow2(-1, k - 4)),) if k % 3 else ()
                       for k in range(8))
        empty = tuple(() for _ in range(8))
        for kind, n in (("mailman", 3), ("two-sparse", 3)):
            cb = sa.make_codebook(kind, n, 8)
            for stages in ((pow2matrix(8, 8, sparse),),
                           (pow2matrix(8, 8, empty),),
                           (pow2matrix(8, 8, empty),
                            pow2matrix(8, 8, sparse))):
                plan = sa.DecompositionPlan(n, 8, cb, stages)
                self._check(plan, random_dyadic_vector(rng, 8))

    def test_wide_mantissas(self):
        plan = wide_mantissa_plan()
        x = [sa.Dyadic(3, -70), sa.Dyadic(-1, 50), sa.Dyadic(0),
             sa.Dyadic(5, 0)]
        self._check(plan, x)
        y, _ = sa.apply(plan, x)
        assert max(v.mantissa.bit_length() for v in y) > 1024


def _one_term_plan(rng, cb):
    """One to five stages over ``cb`` whose rows mostly hold one entry: a
    random partial permutation with random signs (a third negative) and
    exponents, which misses some rows, plus up to ``K / 2`` more entries,
    which give some rows two or three."""
    k = cb.n_cols
    stages = []
    for _ in range(int(rng.integers(1, 6))):
        perm = rng.permutation(k)
        entries = {(int(perm[c]), c) for c in range(k) if rng.random() < 0.8}
        entries |= {(int(r), int(c)) for r, c in rng.integers(
            k, size=(int(rng.integers(0, k // 2 + 1)), 2))}
        cols = [[] for _ in range(k)]
        for r, c in sorted(entries, key=lambda rc: (rc[1], rc[0])):
            cols[c].append((r, SignedPow2(1 if rng.random() < 2 / 3 else -1,
                                          int(rng.integers(-8, 9)))))
        stages.append(pow2matrix(k, k, tuple(map(tuple, cols))))
    return sa.DecompositionPlan(cb.n_rows, k, cb, tuple(stages))


class TestOneTermRows:
    """Rows of one entry, which the engine aliases unless negated, in every
    arrangement: negated ones, chains of them across several matrices,
    unwritten rows, all-zero inputs, and the chains of every codebook
    kind.  Outputs and counters equal the ``Dyadic`` loop,
    and the counters equal ``cost_of``."""

    def test_equal_the_dyadic_loop(self):
        rng = np.random.default_rng(515)
        codebooks = (sa.make_codebook("mailman", 3, 8),
                     sa.make_codebook("two-sparse", 3, 8),
                     sa.make_codebook("self-designing", 3, 8, seed=1,
                                      aux="gaussian"))
        seen = dict.fromkeys(("aliased", "negated", "chained", "unwritten"),
                             0)
        for trial in range(60):
            plan = _one_term_plan(rng, codebooks[trial % 3])
            for x in (random_dyadic_vector(rng, 8, exp_range=20),
                      [sa.Dyadic(0)] * 8):
                y, cost = sa.apply(plan, x)
                y_ref, counts = dyadic_apply_oracle(plan, x)
                assert y == y_ref
                ran = (cost.additions, cost.shifts, cost.sign_changes,
                       cost.per_stage)
                ref = sa.cost_of(plan)
                assert ran == counts == (ref.additions, ref.shifts,
                                         ref.sign_changes, ref.per_stage)
            for mat in plan.chain:
                rows = transpose(mat)
                one = rows.col_len == 1
                negated = rows.negative[rows.first[one]]
                seen["aliased"] += int(np.count_nonzero(~negated))
                seen["negated"] += int(np.count_nonzero(negated))
                seen["unwritten"] += int(np.count_nonzero(rows.col_len == 0))
            # an output of a later step still at an input wire went through
            # an alias in every matrix before it
            seen["chained"] += sum(
                int(np.count_nonzero(seg.slot < plan.n_cols))
                for seg in plan.schedule.steps[1:])
        assert min(seen.values()) > 50, seen


def _missing_rows_stage(rows, cols, missing):
    """A ``rows x cols`` stage that never hits the rows in ``missing``:
    column ``c`` holds two entries over the other rows, with mixed signs and
    exponents, except column 1, which is empty."""
    hit = [i for i in range(rows) if i not in missing]
    out = []
    for c in range(cols):
        picks = {hit[c % len(hit)], hit[(c + 2) % len(hit)]} if c != 1 \
            else set()
        out.append(tuple((i, SignedPow2(-1 if (i + c) % 3 == 0 else 1,
                                        (i * 5 + c) % 13 - 6))
                         for i in sorted(picks)))
    stage = pow2matrix(rows, cols, tuple(out))
    # the rows it hits
    assert np.flatnonzero(transpose(stage).col_len).tolist() == hit
    return stage


class TestKernelEdgeCases:
    """Stages whose row segments leave outputs unset, an empty stage, and a
    non-square factor: the engine equals the Dyadic loop in outputs and in
    every counter, its counters equal ``cost_of``, and ``reconstruct_exact``
    equals the dense Fraction product."""

    @staticmethod
    def _check(plan, rng):
        x = random_dyadic_vector(rng, plan.n_cols, exp_range=20)
        y, cost = sa.apply(plan, x)
        y_ref, counts = dyadic_apply_oracle(plan, x)
        assert y == y_ref
        ran = (cost.additions, cost.shifts, cost.sign_changes, cost.per_stage)
        assert ran == counts
        ref = sa.cost_of(plan)
        assert ran == (ref.additions, ref.shifts, ref.sign_changes,
                       ref.per_stage)
        exact = [[Fraction(m) * Fraction(2) ** e for m, e in col]
                 for col in reconstruct_exact(plan)]
        assert exact == [list(col) for col in
                         zip(*fraction_reconstruction(plan))]

    @pytest.mark.parametrize("missing", [{0}, {7}, {3, 4}, set(range(8))],
                             ids=["first-row", "last-row", "middle-rows",
                                  "zero-nnz"])
    def test_rows_never_hit(self, missing):
        rng = np.random.default_rng(513)
        if missing == set(range(8)):
            edge = pow2matrix(8, 8, tuple(() for _ in range(8)))
            assert edge.nnz == 0
        else:
            edge = _missing_rows_stage(8, 8, missing)
        full = _missing_rows_stage(8, 8, set())
        for kind, n in (("mailman", 3), ("two-sparse", 3),
                        ("self-designing", 3)):
            cb = sa.make_codebook(kind, n, 8,
                                  target=rng.standard_normal((n, 8)))
            for stages in ((edge,), (edge, full), (full, edge),
                           (full, edge, edge)):
                self._check(sa.DecompositionPlan(n, 8, cb, stages), rng)

    @pytest.mark.parametrize("missing", [set(), {0}, {2}, {1, 3}])
    def test_non_square_factor(self, missing):
        # a two-sparse codebook's one factor is its n x K matrix.  The
        # descriptor refuses any factor but the enumeration, which hits
        # every row, so this factor and the chain the descriptor keeps are
        # set after construction: the chain schedules must still handle a
        # non-square matrix with rows missing
        rng = np.random.default_rng(514)
        factor = _missing_rows_stage(5, 8, missing)
        cb = sa.make_codebook("two-sparse", 5, 8)
        vars(cb).update(factors=(factor,), chain=(factor,))
        assert sa.DecompositionPlan(5, 8, cb, ()).chain == (factor,)
        full = _missing_rows_stage(8, 8, set())
        for stages in ((), (full,), (full, full)):
            self._check(sa.DecompositionPlan(5, 8, cb, stages), rng)


def _width_plan(rng, cb):
    """Up to five random stages over ``cb``: each hits a random subset of
    rows (the rest stay empty) with up to three entries per column, often
    at ``EXP_MIN`` or ``EXP_MAX``; about one stage in five is empty."""
    k = cb.n_cols
    stages = []
    for _ in range(int(rng.integers(0, 6))):
        hit = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        cols = []
        for _ in range(k if rng.random() > 0.2 else 0):
            rows = rng.choice(hit, size=int(rng.integers(
                0, min(3, len(hit)) + 1)), replace=False)
            cols.append(tuple(
                (int(i), SignedPow2(int(rng.choice([-1, 1])), int(rng.choice(
                    [EXP_MIN, EXP_MAX, rng.integers(EXP_MIN, EXP_MAX + 1)]))))
                for i in sorted(rows)))
        stages.append(pow2matrix(k, k, tuple(cols) or ((),) * k))
    return sa.DecompositionPlan(cb.n_rows, k, cb, tuple(stages))


class TestWireWidths:
    """Every wire the engine computes or aliases stays within the static
    bound of its binary point, on random 16-bit inputs: the inputs' widest
    integer plus the wire's ``bits``; an unwritten wire holds 0."""

    def test_every_wire_within_its_bound(self):
        rng = np.random.default_rng(520)
        codebooks = (sa.make_codebook("mailman", 3, 8),
                     sa.make_codebook("two-sparse", 3, 8),
                     sa.make_codebook("self-designing", 3, 8, seed=1,
                                      aux="gaussian"))
        widest = unwritten = 0
        for trial in range(60):
            plan = _width_plan(rng, codebooks[trial % 3])
            x = [sa.Dyadic(int(m), -15)
                 for m in rng.integers(-2 ** 15, 2 ** 15, plan.n_cols)]
            ints, _ = align(x)
            start = max(abs(v).bit_length() for v in ints)
            # pow2matrix.serve itself shows every matrix's outputs, aliases
            # included: those of the last matrix of each prefix of the
            # chain, whose schedule is the engine's up to that matrix
            mats = plan.chain[::-1]
            zeros = np.zeros(plan.n_cols, dtype=np.int64)
            for end in range(1, len(mats) + 1):
                sched = schedule(mats[:end], zeros, zeros, "rows")
                assert all(map(np.array_equal, sched.steps[-1],
                               plan.schedule.steps[end - 1]))
                out, point = serve(ints, sched)
                for v, p, bits in zip(out.tolist(), point.tolist(),
                                      sched.steps[-1].bits.tolist()):
                    assert abs(v).bit_length() <= start + bits
                    assert v == 0 or p != UNWRITTEN
                    widest = max(widest, abs(v).bit_length())
                    unwritten += p == UNWRITTEN
            assert sa.apply(plan, x)[0] == exact_matvec(plan, x)
        # the exponent extremes reached the wires, and empty rows and
        # matrices left some stored wires unwritten
        assert widest > 127 and unwritten > 20


class TestCostWitnesses:
    """Three independent counts of one plan agree: ``cost_of`` (from the
    column lengths), the engine (from the terms it gathers) and the
    column-tuple counter of the tests."""

    @staticmethod
    def _check(plan, rng):
        _, ran = sa.apply(plan, random_dyadic_vector(rng, plan.n_cols))
        want = cost_oracle(plan)
        for rep in (sa.cost_of(plan), ran):
            assert (rep.additions, rep.shifts, rep.sign_changes,
                    rep.per_stage) == want

    def test_random_and_synthetic_plans(self):
        rng = np.random.default_rng(520)
        for _ in range(15):
            self._check(random_plan(rng, max_cols=32, max_stages=4)[0], rng)
            self._check(synthetic_plan(rng), rng)

    @pytest.mark.parametrize("kind, n, k", [
        ("mailman", 4, 16), ("two-sparse", 4, 16), ("two-sparse", 8, 256),
        ("self-designing", 4, 16)])
    def test_bare_codebooks(self, kind, n, k):
        rng = np.random.default_rng(521)
        cb = sa.make_codebook(kind, n, k, target=rng.standard_normal((n, k)))
        self._check(sa.DecompositionPlan(n, k, cb, ()), rng)

    def test_table1_plan(self):
        rng = np.random.default_rng(522)
        tgt = rng.standard_normal((16, 1024))
        cb = sa.make_codebook("self-designing", 16, 1024, target=tgt,
                              aux="target")
        plan = sa.decompose(tgt, cb, sa.StageSchedule.fixed(
            [1], target_bits=16, max_stages=96))
        assert plan.n_stages > 20
        self._check(plan, rng)


class TestBaseline:
    def test_single_entry_half(self):
        y, rep = sa.baseline_apply(np.array([[0.5]]), 16, [sa.Dyadic(1)])
        assert y[0] == sa.Dyadic(1, -1)
        assert rep.additions == 0 and rep.shifts == 1

    def test_exact_against_fractions(self):
        rng = np.random.default_rng(504)
        for q in (3, 8, 13):
            tgt = rng.uniform(-1, 1, (4, 6))
            x = random_dyadic_vector(rng, 6)
            y, _ = sa.baseline_apply(tgt, q, x)
            scale = 1 << (q - 1)
            m = np.sign(tgt) * np.floor(np.abs(tgt) * scale + 0.5)
            ref = fraction_matvec(m / scale, x)
            assert [v.to_fraction() for v in y] == ref

    def test_wide_dyadic_inputs_use_exact_path(self):
        tgt = np.full((2, 3), 0.5)
        x = [sa.Dyadic(3, 80), sa.Dyadic(-5, -90), sa.Dyadic(7, 0)]
        y, _ = sa.baseline_apply(tgt, 8, x)
        ref = fraction_matvec(tgt, x)
        assert [v.to_fraction() for v in y] == ref

    def test_adds_per_entry_uniform(self):
        rng = np.random.default_rng(505)
        tgt = rng.uniform(-1, 1, (64, 512))
        _, rep = sa.baseline_apply(tgt, 16, [sa.Dyadic(1)] * 512)
        assert rep.adds_per_entry == pytest.approx(7.5, abs=0.15)

    def test_entry_distortion_law(self):
        rng = np.random.default_rng(506)
        tgt = rng.uniform(-1, 1, (300, 400))
        q = 8
        scale = 1 << (q - 1)
        quant = np.sign(tgt) * np.floor(np.abs(tgt) * scale + 0.5) / scale
        mse = np.mean((tgt - quant) ** 2)
        assert mse == pytest.approx(4.0 ** -q / 3, rel=0.05)

    def test_range_check(self):
        with pytest.raises(ValueError):
            sa.baseline_apply(np.array([[1.5]]), 8, [sa.Dyadic(1)])

    @pytest.mark.parametrize("q", range(54, 63))
    def test_ties_round_away_from_zero_at_wide_q(self, q):
        # at q = 54, t * 2**53 = 2**52 + 1, whose sum with 0.5 is a tie
        # that rounds to even: floor(x + 0.5) read one unit too many
        t = (2 ** 52 + 1) / 2 ** 53
        for v in (t, -t):
            y, _ = sa.baseline_apply(np.array([[v]]), q, [sa.Dyadic(1)])
            want = sa.csd_decode(sa.binary_encode(v, q)).to_fraction()
            assert y[0].to_fraction() == want
