"""Plan model: thresholds, reconstruction, cost, distortion, serialization."""

import dataclasses
import functools
import gc
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import shiftadd as sa
from shiftadd.plan import plan_to_dict, reconstruct_exact
from shiftadd.pot import EXP_MAX, EXP_MIN, Dyadic, SignedPow2
from shiftadd.pow2matrix import UNWRITTEN, Pow2Matrix, schedule

from helpers import (chain_rows_oracle, columns, deserialize_oracle,
                     fraction_reconstruction, from_records_oracle,
                     loads_as_the_oracle, matrices_not_read_from_records,
                     pow2matrix, random_plan, reconstruct_exact_oracle,
                     same_bits, synthetic_plan, transpose,
                     wide_mantissa_plan)


class TestThreshold:
    def test_values(self):
        assert sa.threshold(16) == pytest.approx(4.0 ** -15 / 3)
        assert 10 * math.log10(sa.threshold(16)) == pytest.approx(-95.1, abs=0.1)
        assert sa.threshold(1) == pytest.approx(1 / 3)
        assert sa.threshold(8) == pytest.approx(4.0 ** -7 / 3)
        with pytest.raises(ValueError):
            sa.threshold(0)
        # the widest width still asks for a nonzero error
        assert sa.threshold(sa.plan.MAX_BITS) == 5e-324
        assert sa.achieved_bits(5e-324) == sa.plan.MAX_BITS
        with pytest.raises(ValueError, match="q must be in"):
            sa.threshold(10 ** 310)
        with pytest.raises(TypeError, match="q must be an integer"):
            sa.threshold(2.5)

    def test_achieved_bits(self):
        assert sa.achieved_bits(0.0) == math.inf
        assert sa.achieved_bits(1.0) == 0.0
        for q in (1, 2, 8, 16, 24):
            thr = sa.threshold(q)
            assert sa.achieved_bits(thr) == q
            assert sa.achieved_bits(thr * 1.0001) == q - 1
            assert sa.achieved_bits(thr * 0.9999) == q

    def test_achieved_bits_refuses_nan(self):
        with pytest.raises(ValueError, match="relative error .* got nan"):
            sa.achieved_bits(math.nan)


class TestReconstruct:
    def test_empty_stage_list_gives_codebook(self):
        rng = np.random.default_rng(401)
        for kind, n, k in [("mailman", 3, 8), ("two-sparse", 3, 7),
                           ("two-sparse", 12, 4096),
                           ("self-designing", 3, 7),
                           ("self-designing", 16, 256), ("mailman", 1, 2)]:
            cb = sa.make_codebook(kind, n, k, seed=2,
                                  target=rng.standard_normal((n, k)))
            plan = sa.DecompositionPlan(n, k, cb, ())
            assert same_bits(sa.reconstruct(plan), cb.dense()), kind

    def test_identity_wiring_permutes_and_scales(self):
        cb = sa.make_codebook("mailman", 2, 4)
        # one-sparse wiring: column k selects codebook column (k+1) % 4, halved
        cols = tuple((((k + 1) % 4, SignedPow2(1, -1)),) for k in range(4))
        plan = sa.DecompositionPlan(2, 4, cb, (pow2matrix(4, 4, cols),))
        expect = 0.5 * cb.dense()[:, [1, 2, 3, 0]]
        assert np.array_equal(sa.reconstruct(plan), expect)

    @staticmethod
    def _oracle_plans():
        rng = np.random.default_rng(400)
        plans = [random_plan(rng, max_cols=16, max_stages=3)[0]
                 for _ in range(10)]
        # mailman plans, whose codebook factors are derived from the shape
        for n in (1, 3, 5):
            plans.append(sa.decompose(rng.standard_normal((n, 1 << n)),
                                      sa.make_codebook("mailman", n, 1 << n),
                                      sa.StageSchedule.fixed([1, 2])))
        # stage exponents from -40 to 40
        plans += [synthetic_plan(rng) for _ in range(10)]
        return plans

    def test_exact_against_fraction_oracle(self):
        for plan in self._oracle_plans():
            cols = reconstruct_exact(plan)
            # independent oracle: dense Fraction chain product
            dense = fraction_reconstruction(plan)
            for k in range(plan.n_cols):
                for n in range(plan.n_rows):
                    m, e = cols[k][n]
                    assert Fraction(m) * Fraction(2) ** e == dense[n][k]

    def test_pairs_equal_row_list_oracle(self):
        # the same (mantissa, exponent) pairs, not only the same values
        for plan in self._oracle_plans() + [wide_mantissa_plan()]:
            cols = reconstruct_exact(plan)
            assert cols == reconstruct_exact_oracle(plan)
            assert all(type(m) is int and type(e) is int
                       for col in cols for m, e in col)

    def test_empty_columns_and_empty_stage(self):
        cb = sa.make_codebook("two-sparse", 3, 8)
        sparse = tuple(((k, SignedPow2(-1, k - 4)),) if k % 3 else ()
                       for k in range(8))
        empty = tuple(() for _ in range(8))
        for stages in ((pow2matrix(8, 8, sparse),),
                       (pow2matrix(8, 8, empty),),
                       (pow2matrix(8, 8, sparse), pow2matrix(8, 8, empty))):
            plan = sa.DecompositionPlan(3, 8, cb, stages)
            assert reconstruct_exact(plan) == reconstruct_exact_oracle(plan)

    def test_wide_mantissas_round_correctly(self):
        plan = wide_mantissa_plan()
        cols = reconstruct_exact(plan)
        assert max(m.bit_length() for col in cols for m, _ in col) > 1024
        expect = [[float(Fraction(m) * Fraction(2) ** e) for m, e in col]
                  for col in cols]
        assert sa.reconstruct(plan).T.tolist() == expect

    def test_float_view_matches_fit_tracking(self):
        rng = np.random.default_rng(401)
        tgt = rng.standard_normal((4, 16))
        cb = sa.make_codebook("mailman", 4, 16)
        plan = sa.decompose(tgt, cb, sa.StageSchedule.fixed([1, 1]))
        rep = sa.distortion(plan, tgt)
        assert rep.rel_error == pytest.approx(plan.metadata["fit_rel_error"],
                                              rel=1e-9)


def _stage(k, entries):
    """A ``k x k`` stage from one list of ``(row, sign, exp)`` per column."""
    return pow2matrix(k, k, tuple(
        tuple((i, SignedPow2(sign, e)) for i, sign, e in sorted(col))
        for col in entries))


def _edge_stages(k):
    """Stages at the packed lanes' edges: a column of ``EXP_MIN`` and
    ``EXP_MAX`` beside each other (the widest shift), every column holding
    every row negated (the longest segments, all-negative sums), and empty
    columns."""
    extremes = _stage(k, [[(j, (-1) ** j, EXP_MIN),
                           ((j + 1) % k, 1, EXP_MAX)] for j in range(k)])
    negative = _stage(k, [[(i, -1, EXP_MIN if i % 2 else EXP_MAX)
                           for i in range(k)] for _ in range(k)])
    empty = _stage(k, [[] if j % 2 else [(k - 1 - j, -1, j - k // 2)]
                       for j in range(k)])
    return (extremes, negative, empty, extremes, negative)


@functools.cache
def _edge_codebooks():
    """Every codebook kind, at one row and at 24 rows where the kind allows
    (a mailman codebook has ``2**rows`` columns, two-sparse needs two rows
    for more than one column)."""
    make = sa.make_codebook
    return (make("mailman", 1, 2), make("mailman", 5, 32),
            make("two-sparse", 2, 32), make("two-sparse", 24, 32),
            make("self-designing", 1, 32, seed=1, aux="gaussian"),
            make("self-designing", 24, 32, seed=2, aux="gaussian"))


def _edge_plans():
    return [sa.DecompositionPlan(cb.n_rows, cb.n_cols, cb,
                                 _edge_stages(cb.n_cols))
            for cb in _edge_codebooks()]


def _column_steps(plan):
    """``schedule`` of ``plan.chain`` by columns from the oracle's start
    rows, as ``reconstruct_exact`` builds it: yields each matrix's
    ``Segments`` with the oracle's rows after that matrix."""
    states = chain_rows_oracle(plan)
    start = next(states)
    bits = [max(abs(ints[j]) for ints, _ in start).bit_length()
            for j in range(len(start[0][0]))]
    point = [0 if b else UNWRITTEN for b in bits]
    steps = schedule(plan.chain, point, bits, "columns").steps
    yield from zip(steps, states, strict=True)


def _assert_growth_bounds(plan):
    """After each matrix of the chain, each column of the oracle's rows
    (over the exponent the chain's smallest exponents sum to) is its
    static point's integer shifted left to that exponent, within the bits
    the schedule bounds it by; an unwritten column holds 0."""
    low = 0
    for (seg, rows), mat in zip(_column_steps(plan), plan.chain):
        low += int(mat.exp.min()) if mat.nnz else 0
        for j, (p, bits) in enumerate(zip(seg.point.tolist(),
                                          seg.bits.tolist())):
            col = [ints[j] for ints, _ in rows]
            if p == UNWRITTEN:
                assert not any(col)
                continue
            assert p >= low
            for v in col:
                assert v == v >> (p - low) << (p - low)
                assert abs(v >> (p - low)).bit_length() <= bits


class TestPackedReconstruction:
    """Rows packed as lanes of one integer per column reconstruct exactly
    what the row lists of the oracle do, and the static bound that sizes
    the lanes holds after every matrix."""

    @pytest.mark.parametrize("plan", _edge_plans(),
                             ids=lambda p: f"{p.codebook.kind}-{p.n_rows}")
    def test_edge_plans_equal_the_oracle(self, plan):
        assert reconstruct_exact(plan) == reconstruct_exact_oracle(plan)

    def test_edge_plans_cover_their_cases(self):
        mixed = 0
        for plan in _edge_plans():
            cols = [[m for m, _ in col] for col in reconstruct_exact(plan)]
            assert max(abs(m).bit_length() for col in cols for m in col) > 380
            assert any(m < 0 for col in cols for m in col) or plan.n_rows == 1
            # negative and positive lanes side by side in one integer
            mixed += any(min(col) < 0 < max(col) for col in cols)
        assert mixed >= 3

    @pytest.mark.parametrize("plan", _edge_plans(),
                             ids=lambda p: f"{p.codebook.kind}-{p.n_rows}")
    def test_growth_bounds_every_matrix(self, plan):
        _assert_growth_bounds(plan)

    def test_growth_of_one_matrix(self):
        # an output of m terms gains (m - 1).bit_length() bits over its
        # widest shifted term, and its lowest term is not shifted
        def one(mat):
            seg, = schedule([mat], [0] * 4, [0] * 4, "columns").steps
            return seg, seg.point.tolist(), seg.bits.tolist()

        empty, point, bits = one(_stage(4, [[], [], [], []]))
        assert point == [UNWRITTEN] * 4 and bits == [0] * 4
        assert empty.slot.tolist() == [0] * 4  # all at the constant 0
        single, point, bits = one(_stage(4, [[(0, 1, 3)]] * 4))
        assert point == [3] * 4 and bits == [0] * 4
        # one unnegated entry each: aliases of input 0, nothing executed
        assert single.slot.tolist() == [1] * 4 and not len(single.source)
        for m, grow in ((2, 1), (3, 2), (4, 2)):
            stage = _stage(4, [[(i, -1, 0) for i in range(m)], [], [],
                               [(0, 1, 5)]])
            _, point, bits = one(stage)
            assert bits == [grow, 0, 0, 0]
            assert point == [0, UNWRITTEN, UNWRITTEN, 5]
            seg, point, bits = one(transpose(stage))
            assert bits == [5 + 1] + [0] * 3
            assert point == [0] * m + [UNWRITTEN] * (4 - m)
            assert seg.lshift.tolist() == [5]

    def test_unwritten_wires_do_not_lower_points(self):
        # column 1 of the first matrix is empty, so the second matrix's
        # 2**EXP_MIN entry on it neither shifts nor sets its column's point
        first = _stage(4, [[(0, 1, 2)], [], [(1, 1, 0)], [(2, 1, 1)]])
        second = _stage(4, [[(0, 1, 0), (1, -1, EXP_MIN), (2, 1, 3)],
                            [(1, 1, EXP_MAX)], [], [(3, 1, 0)]])
        head, seg = schedule([first, second], [0] * 4, [1] * 4,
                             "columns").steps
        # column 1 is at the constant 0, the others alias their inputs
        assert head.slot.tolist() == [1, 0, 2, 3]
        # so do columns 1 and 3 of the second, column 1 on an unwritten wire
        assert seg.source.tolist() == [1, 0, 2]
        assert seg.slot.tolist() == [5, 0, 0, 3]
        assert seg.point.tolist() == [2, UNWRITTEN, UNWRITTEN, 1]
        # 2**0 on the wire at point 2 stays put, 2**3 on the one at point 0
        # shifts by 1: three terms of at most 1 + 1 bits
        assert seg.shifted.tolist() == [2] and seg.lshift.tolist() == [1]
        assert seg.bits.tolist() == [4, 0, 0, 1]

    def test_lane_width_of_a_deploy_size_plan(self):
        # no wider than the bound of one exponent per matrix, which adds
        # every matrix's exponent span and longest column
        plan = _deploy_size_plan()
        *_, (seg, _) = _column_steps(plan)
        shared = 1 + sum(int(m.exp.max() - m.exp.min())
                         + (int(m.col_len.max()) - 1).bit_length()
                         for m in plan.chain)
        assert int(seg.bits.max()) <= shared
        _assert_growth_bounds(plan)
        assert reconstruct_exact(plan) == reconstruct_exact_oracle(plan)

    def test_dead_wires_are_dropped(self):
        # a store that kept every wire would hold each matrix's 16-lane
        # integers to the end: a peak of about 10.3 MB, against 1.7 MB
        plan = _deploy_size_plan()
        reconstruct_exact(plan)
        tracemalloc.start()
        try:
            reconstruct_exact(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000


@functools.cache
def _deploy_size_plan():
    """A 16x256 plan at 16 bits over a codebook designed on its target."""
    target = np.random.default_rng(805).standard_normal((16, 256))
    cb = sa.make_codebook("self-designing", 16, 256, target=target,
                          aux="target")
    return sa.decompose(target, cb, sa.StageSchedule.fixed(
        [1], target_bits=16, max_stages=96))


@st.composite
def _lane_plans(draw):
    """Up to six random stages over any edge codebook: exponents anywhere
    in ``[EXP_MIN, EXP_MAX]``, often at either end, in columns of up to
    three entries (the edge plans hold the long ones)."""
    cb = draw(st.sampled_from(_edge_codebooks()))
    k = cb.n_cols
    exps = st.sampled_from([EXP_MIN, EXP_MAX]) | st.integers(EXP_MIN, EXP_MAX)
    stages = []
    for _ in range(draw(st.integers(0, 6))):
        entries = []
        for _ in range(k):
            rows = draw(st.sets(st.integers(0, k - 1), max_size=3))
            entries.append([(i, draw(st.sampled_from([1, -1])), draw(exps))
                            for i in rows])
        stages.append(_stage(k, entries))
    return sa.DecompositionPlan(cb.n_rows, k, cb, tuple(stages))


@settings(max_examples=60, deadline=None)
@given(plan=_lane_plans())
def test_packed_lanes_equal_the_oracle(plan):
    assert reconstruct_exact(plan) == reconstruct_exact_oracle(plan)
    _assert_growth_bounds(plan)


def _band_stage(exps):
    """A 4x4 stage whose column ``k`` holds the ``(row, exp)`` pairs of
    ``exps[k]``, negative on even columns."""
    return pow2matrix(4, 4, tuple(
        tuple((i, SignedPow2(-1 if k % 2 == 0 else 1, e))
              for i, e in sorted(col))
        for k, col in enumerate(exps)))


def _mailman_plan(stages):
    return sa.DecompositionPlan(2, 4, sa.make_codebook("mailman", 2, 4),
                                tuple(stages))


# sixteen stages of 2**-64, then one mixing 2**-64 with wider exponents:
# entries below half the smallest subnormal round to zeros of either sign,
# the others stay subnormal
_UNDERFLOW_PLAN = _mailman_plan(
    [_band_stage([[(k, EXP_MIN)] for k in range(4)])] * 16
    + [_band_stage([[(0, -20), (2, EXP_MIN)], [(1, EXP_MIN)], [(2, -3)],
                    [(3, EXP_MIN)]])])
# exponents from 1 up: every row's shared exponent is >= 0
_POSITIVE_PLAN = _mailman_plan(
    [_band_stage([[(k, 1 + k), ((k + 1) % 4, 40)] for k in range(4)])] * 3)


@st.composite
def _rounding_plans(draw):
    """Plans of up to 20 4x4 stages over a 2x4 mailman or two-sparse
    codebook.  Each stage's exponents lie in one band at or a little above
    the plan's base: long chains on a low base give subnormals and signed
    zeros, a base >= 0 rows with exponent >= 0, wide bands wide mantissas."""
    kind = draw(st.sampled_from(["mailman", "two-sparse"]))
    base = draw(st.sampled_from([EXP_MIN, -40, -1, 0, 8])
                | st.integers(EXP_MIN, EXP_MAX))
    stages = []
    for _ in range(draw(st.sampled_from([0, 1, 2, 5, 17, 20]))):
        lo = min(EXP_MAX, base + draw(st.integers(0, 3)))
        hi = min(EXP_MAX, lo + draw(st.sampled_from([0, 2, 30, 127])))
        stages.append(_band_stage([
            [(i, draw(st.integers(lo, hi)))
             for i in sorted(draw(st.sets(st.integers(0, 3), min_size=1,
                                          max_size=3)))]
            for _ in range(4)]))
    return sa.DecompositionPlan(2, 4, sa.make_codebook(kind, 2, 4),
                                tuple(stages))


def test_rounding_examples_cover_their_cases():
    rec = sa.reconstruct(_UNDERFLOW_PLAN)
    zeros = rec[rec == 0.0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    assert (np.abs(rec[rec != 0.0]) < 2.0 ** -1022).any()  # subnormal
    assert all(e >= 0 and m for col in reconstruct_exact(_POSITIVE_PLAN)
               for m, e in col)
    assert max(m.bit_length() for col in
               reconstruct_exact(wide_mantissa_plan()) for m, _ in col) > 1024


@settings(max_examples=200, deadline=None)
@given(plan=_rounding_plans())
@example(plan=_UNDERFLOW_PLAN)
@example(plan=_POSITIVE_PLAN)
@example(plan=wide_mantissa_plan())
def test_reconstruct_rounds_like_dyadic_to_float(plan):
    cols = reconstruct_exact(plan)
    try:
        want = np.array([[Dyadic(*col[n]).to_float() for col in cols]
                         for n in range(plan.n_rows)])
    except OverflowError:  # a value beyond float64 fails either way
        with pytest.raises(OverflowError):
            sa.reconstruct(plan)
        return
    got = sa.reconstruct(plan)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestCost:
    def test_mailman_only(self):
        plan = sa.DecompositionPlan(3, 8, sa.make_codebook("mailman", 3, 8), ())
        assert sa.cost_of(plan).additions == 4

    def test_no_op_plan_costs_nothing(self):
        cb = sa.make_codebook("two-sparse", 3, 3)  # unit columns only
        plan = sa.DecompositionPlan(3, 3, cb, ())
        rep = sa.cost_of(plan)
        assert rep.additions == 0 and rep.adds_per_entry == 0.0

    def test_cost_identity_self_design(self):
        rng = np.random.default_rng(402)
        k = 64
        tgt = rng.standard_normal((8, k))
        cb = sa.make_codebook("self-designing", 8, k, target=tgt)
        plan = sa.decompose(tgt, cb, sa.StageSchedule.fixed([1, 1, 1]))
        rep = sa.cost_of(plan)
        assert rep.additions == (3 + 2) * k
        assert rep.adds_per_entry == pytest.approx((3 + 2) * k / (8 * k))
        # matches the nonzeros - K form stage by stage
        for stage, adds in zip(plan.stages, rep.per_stage):
            assert adds == stage.nnz - k

    def test_achieved_bits_statistically_monotone_in_stages(self):
        rng = np.random.default_rng(403)
        means = []
        for stages in (1, 3, 5):
            bits = []
            for seed in range(20):
                srng = np.random.default_rng((403, seed))
                tgt = srng.standard_normal((4, 16))
                cb = sa.make_codebook("mailman", 4, 16)
                plan = sa.decompose(tgt, cb, sa.StageSchedule.fixed([1] * stages))
                bits.append(plan.metadata["fit_achieved_bits"])
            means.append(np.mean(bits))
        assert means[0] <= means[1] <= means[2]


class TestDistortion:
    def test_zero_for_own_reconstruction(self):
        rng = np.random.default_rng(404)
        plan, _ = random_plan(rng, max_cols=16, max_stages=2)
        rec = sa.reconstruct(plan)
        rep = sa.distortion(plan, rec)
        assert rep.rel_error == 0.0 and rep.db == -math.inf
        assert rep.achieved_bits == math.inf

    def test_exact_error_meets_fit_gate_at_32_bits(self):
        # the fit gate reads the float-tracked error; the exact one agrees
        rng = np.random.default_rng(410)
        thr = sa.threshold(32)
        for shape, schedule in (
                ((4, 32), sa.StageSchedule.fixed([1], target_bits=32)),
                ((3, 64), sa.StageSchedule.adaptive(32, max_stages=256))):
            tgt = rng.standard_normal(shape)
            cb = sa.make_codebook("self-designing", *shape, target=tgt)
            plan = sa.decompose(tgt, cb, schedule)
            assert plan.metadata["fit_rel_error"] <= thr
            assert sa.distortion(plan, tgt).rel_error <= thr

    def test_scale_invariance(self):
        rng = np.random.default_rng(405)
        tgt = rng.standard_normal((3, 5))
        approx = tgt + 0.01 * rng.standard_normal((3, 5))
        from shiftadd.plan import distortion_of_matrix
        a = distortion_of_matrix(approx, tgt)
        b = distortion_of_matrix(2 * approx, 2 * tgt)
        assert a.rel_error == pytest.approx(b.rel_error, rel=1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(406)
        plan, tgt = random_plan(rng, max_cols=8, max_stages=1)
        with pytest.raises(sa.DimensionError):
            sa.distortion(plan, np.zeros((plan.n_rows + 1, plan.n_cols)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_target(self, bad):
        # a NaN once read as rel_error inf and 0 bits; an inf ended in
        # achieved_bits' float-to-int conversion
        tgt = np.random.default_rng(411).standard_normal((4, 16))
        plan = sa.decompose(tgt, sa.make_codebook("two-sparse", 4, 16),
                            sa.StageSchedule.fixed([1]))
        tgt[2, 5] = bad
        with pytest.raises(ValueError, match="target holds NaN or infinite"):
            sa.distortion(plan, tgt)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_target_norm(self):
        # finite, but its squared norm overflows: numpy warned, then
        # achieved_bits refused a NaN error without naming the target
        tgt = np.random.default_rng(411).standard_normal((4, 16))
        plan = sa.decompose(tgt, sa.make_codebook("two-sparse", 4, 16),
                            sa.StageSchedule.fixed([1]))
        for call in (lambda t: sa.distortion(plan, t),
                     lambda t: sa.decompose(t, plan.codebook,
                                            sa.StageSchedule.fixed([1]))):
            with pytest.raises(ValueError, match="squared norm overflows "
                               "float64; rescale the target by a power"):
                call(tgt * 1e160)


class TestSerialization:
    def test_round_trip_random_plans(self):
        rng = np.random.default_rng(407)
        for _ in range(20):
            plan, _ = random_plan(rng, max_cols=32, max_stages=4)
            data = sa.serialize(plan)
            back = sa.deserialize(data)
            assert back == plan
            # coefficients preserved bit for bit
            for s1, s2 in zip(plan.stages, back.stages):
                assert s1.to_records() == s2.to_records()

    def test_writer_equals_the_json_reference(self):
        # random, synthetic, adaptive and Table-1 plans over every codebook
        # kind, with metadata that looks like the plan's own JSON
        rng = np.random.default_rng(413)
        plans = [random_plan(rng, max_cols=32, max_stages=3)[0]
                 for _ in range(8)]
        plans += [synthetic_plan(rng, max_stages=3) for _ in range(4)]
        tgt = rng.standard_normal((4, 16))
        for kind in ("mailman", "two-sparse", "self-designing"):
            cb = sa.make_codebook(kind, 4, 16, seed=5, target=tgt)
            plans += [sa.decompose(tgt, cb, sa.StageSchedule.adaptive(6)),
                      sa.decompose(tgt, cb, sa.StageSchedule.fixed([0, 2]))]
        tgt = rng.standard_normal((16, 1024))
        cb = sa.make_codebook("self-designing", 16, 1024, target=tgt,
                              aux="target")
        plans.append(sa.decompose(tgt, cb, sa.StageSchedule.fixed(
            [1], target_bits=16, max_stages=96)))
        odd = {"z": '"},"stages":[[[0,1,0]]],"version":2,"x":{"',
               "%d": "%s%d", "a": [float("inf"), -0.0, 1e-300, "]"],
               "\u00e9\u2028": {"b": None, "a": ["}", True]}}
        for plan in plans:
            for meta in (plan.metadata, odd):
                p = dataclasses.replace(plan, metadata=meta)
                assert sa.serialize(p) == json.dumps(
                    plan_to_dict(p), separators=(",", ":"),
                    sort_keys=True).encode()

    def test_truncated_stream(self):
        rng = np.random.default_rng(408)
        plan, _ = random_plan(rng, max_cols=8, max_stages=1)
        data = sa.serialize(plan)
        with pytest.raises(sa.PlanFormatError):
            sa.deserialize(data[: len(data) // 2])

    def test_unknown_version(self):
        rng = np.random.default_rng(409)
        plan, _ = random_plan(rng, max_cols=8, max_stages=1)
        doc = json.loads(sa.serialize(plan))
        doc["version"] = 999
        with pytest.raises(sa.PlanVersionError):
            sa.deserialize(json.dumps(doc).encode())

    def test_not_a_plan(self):
        with pytest.raises(sa.PlanFormatError):
            sa.deserialize(b'{"format": "something-else", "version": 1}')
        with pytest.raises(sa.PlanFormatError):
            sa.deserialize(b"[]")

    def _doc(self):
        cb = sa.make_codebook("mailman", 2, 4)
        stage = pow2matrix(4, 4, tuple(((k, SignedPow2(1, -k)),)
                                       for k in range(4)))
        return json.loads(sa.serialize(sa.DecompositionPlan(2, 4, cb,
                                                            (stage,))))

    def test_wrong_shapes_are_format_errors(self):
        doc = self._doc()
        doc["stages"][0].pop()  # a stage with three columns in a 4-wide plan
        with pytest.raises(sa.PlanFormatError, match="stage 0 must be 4x4"):
            sa.deserialize(json.dumps(doc).encode())
        doc = self._doc()
        doc["rows"] = 3  # disagrees with the 2-row codebook
        with pytest.raises(sa.PlanFormatError, match="codebook shape"):
            sa.deserialize(json.dumps(doc).encode())

    @pytest.mark.parametrize("entry", [[0.9, 1, 0], [0, 1.0, -1.0],
                                       [0, 1, -1.0], ["0", 1, 0],
                                       [True, 1, 0], [0, True, 0],
                                       [0, 1, False]])
    def test_non_integer_entries_rejected(self, entry):
        # JSON's true used to load as 1, a sign of +1
        doc = self._doc()
        doc["stages"][0][0][0] = entry
        with pytest.raises(sa.PlanFormatError, match="integer"):
            sa.deserialize(json.dumps(doc).encode())
        with pytest.raises(sa.PlanFormatError, match="integer"):
            sa.deserialize(json.dumps(doc, separators=(",", ":"),
                                      sort_keys=True).encode())

    def test_non_integer_shape_rejected(self):
        # each boolean used to load as 1 or 0 and pass its check
        for path, value, message in [
                (("cols",), 4.0, "integer"),
                (("rows",), True, "plan field rows must be an integer, "
                                  "got True"),
                (("cols",), False, "plan field cols must be an integer, "
                                   "got False"),
                (("version",), True, "unsupported plan version True"),
                (("codebook", "rows"), True, "plan field codebook rows must "
                                             "be an integer, got True"),
                (("codebook", "stage_sparsity"), True, "plan field codebook "
                 "stage_sparsity must be an integer, got True")]:
            doc = self._doc()
            *parents, key = path
            where = doc
            for parent in parents:
                where = where[parent]
            where[key] = value
            with pytest.raises(sa.PlanFormatError, match=message):
                sa.deserialize(json.dumps(doc).encode())

    @pytest.mark.parametrize("metadata", [[1, 2], None, "seed", 3])
    def test_non_object_metadata_rejected(self, metadata):
        # it would load, and a consumer's plan.metadata.get(...) fail later
        doc = self._doc()
        doc["metadata"] = metadata
        with pytest.raises(sa.PlanFormatError,
                           match="metadata must be a JSON object"):
            sa.deserialize(json.dumps(doc).encode())
        del doc["metadata"]
        assert sa.deserialize(json.dumps(doc).encode()).metadata == {}

    def test_loading_stores_only_the_arrays(self):
        rng = np.random.default_rng(411)
        plan, _ = random_plan(rng, max_cols=16, max_stages=3)
        back = sa.deserialize(sa.serialize(plan))
        for mat in back.stages + back.codebook.factors:
            assert set(vars(mat)) == {"rows", "cols", "row", "negative",
                                      "exp", "col_len"}
            assert [mat.row.dtype, mat.negative.dtype, mat.exp.dtype,
                    mat.col_len.dtype] == [np.int32, bool, np.int16,
                                           np.int32]

    @pytest.mark.parametrize("entry, reason", [
        ("abc", "'str' object cannot be interpreted as an integer"),
        ([0, 1], "an entry is not a triple"),
        ([0, 1, 0, 0], "an entry is not a triple"),
        ([0, 1, 0.5], "'float' object cannot be interpreted as an integer"),
        ([0, 1, None],
         "'NoneType' object cannot be interpreted as an integer")],
        ids=["string", "two-leaves", "four-leaves", "float", "none"])
    def test_bad_entry_message(self, entry, reason):
        doc = self._doc()
        doc["stages"][0][0][0] = entry
        with pytest.raises(sa.PlanFormatError) as exc:
            sa.deserialize(json.dumps(doc).encode())
        assert str(exc.value) == ("matrix entries must be [row, sign, exp] "
                                  f"integer triples: {reason}")

    def test_bad_factor_entry_message(self):
        # a factor exponent beyond 64 bits, in serialize's own spelling
        cb = sa.make_codebook("self-designing", 2, 4, seed=3, aux="gaussian")
        doc = json.loads(sa.serialize(sa.DecompositionPlan(2, 4, cb, ())))
        doc["codebook"]["factors"][1][0][0][2] = 2 ** 70
        with pytest.raises(sa.PlanFormatError, match=r"^matrix entries must "
                           r"be \[row, sign, exp\] integer triples: "):
            sa.deserialize(_compact(doc))

    @pytest.mark.parametrize("data", ["{}", memoryview(b"{}"), None],
                             ids=["str", "memoryview", "None"])
    def test_only_bytes_are_read(self, data):
        # each would end in an AttributeError from data.decode()
        with pytest.raises(TypeError, match="a plan is read from bytes or "
                           f"bytearray, got {type(data).__name__}$"):
            sa.deserialize(data)

    def test_bytes_and_bytearray_load(self):
        plan = sa.DecompositionPlan(2, 4, sa.make_codebook("mailman", 2, 4),
                                    ())
        data = sa.serialize(plan)
        assert sa.deserialize(data) == sa.deserialize(bytearray(data)) == plan

    @pytest.fixture
    def collector(self):
        """Put the cyclic collector back as the test found it."""
        was = gc.isenabled()
        yield
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("edit", ["none", "malformed-json",
                                      "float-leaf"])
    def test_collector_state_is_restored(self, collector, enabled, edit):
        doc = self._doc()
        if edit == "float-leaf":
            doc["stages"][0][0][0][2] = -1.0
        data = json.dumps(doc).encode()
        if edit == "malformed-json":
            data = data[:-1]
        (gc.enable if enabled else gc.disable)()
        if edit == "none":
            sa.deserialize(data)
        else:
            with pytest.raises(sa.PlanFormatError):
                sa.deserialize(data)
        assert gc.isenabled() is enabled

    def test_loading_starts_no_collection(self, collector):
        # with the collector left on, this load starts 42 young and 3
        # middle collections
        data = sa.serialize(_deploy_size_plan())
        gc.enable()
        gc.collect()
        before = [g["collections"] for g in gc.get_stats()]
        sa.deserialize(data)
        assert [g["collections"] for g in gc.get_stats()] == before

    @pytest.mark.parametrize("leaf", [2 ** 63, -2 ** 63 - 1, 10 ** 30])
    def test_huge_integer_is_a_format_error(self, leaf):
        for k in range(3):
            doc = self._doc()
            doc["stages"][0][0][0][k] = leaf
            with pytest.raises(sa.PlanFormatError):
                sa.deserialize(json.dumps(doc).encode())

    @pytest.mark.parametrize("kind", ["two-sparse", "gaussian", "mailman"])
    @pytest.mark.parametrize("rows, cols", [(10 ** 5, 10 ** 9),
                                            (10 ** 9, 1), (25, 1 << 24)])
    def test_oversized_codebook_refused_before_building(self, monkeypatch,
                                                        kind, rows, cols):
        # the size is checked before the kind, so a document of the
        # removed gaussian kind is refused as oversized too
        def no_build(*args, **kwargs):
            raise AssertionError("the codebook was built")

        for name in ("two_sparse_build", "gaussian_build", "mailman_factors"):
            monkeypatch.setattr(f"shiftadd.codebooks.{name}", no_build)
        doc = {"format": sa.plan.PLAN_FORMAT, "version": sa.plan.PLAN_VERSION,
               "rows": rows, "cols": cols, "stages": [],
               "codebook": {"kind": kind, "rows": rows, "cols": cols}}
        with pytest.raises(sa.PlanFormatError, match="exceeds the largest"):
            sa.deserialize(json.dumps(doc).encode())
        # the largest mailman codebook itself still loads, unbuilt
        doc["rows"] = doc["codebook"]["rows"] = 24
        doc["cols"] = doc["codebook"]["cols"] = 1 << 24
        if kind == "mailman":
            assert sa.deserialize(json.dumps(doc).encode()).n_cols == 1 << 24
        elif kind == "gaussian":
            with pytest.raises(sa.PlanFormatError, match="'gaussian'"):
                sa.deserialize(json.dumps(doc).encode())

    @pytest.mark.parametrize("codebook, message", [
        ({"kind": "gaussian", "rows": 2, "cols": 4, "seed": 3},
         "unknown codebook kind 'gaussian'"),
        ({"stage_sparsity": -5}, "stage_sparsity must be >= 0"),
        *[({"kind": kind, "rows": 2, "cols": 4, **fields}, message)
          for kind in ("mailman", "two-sparse")
          for fields, message in (
              ({"factors": [[[[i, 1, 0]] for i in range(4)]]},
               "takes no factors"),
              ({"stage_sparsity": 2}, "takes no stage_sparsity"))],
        # B1 reads the 2 input wires: a row 2 is a wire nothing writes
        ({"factors": [[[[0, 1, 0]], [[1, 1, 0]], [[0, 1, 0], [2, 1, 0]], []],
                      [[[i, 1, 0]] for i in range(4)]]},
         "row index 2 out of range")],
        ids=["gaussian-kind", "negative-stage-sparsity", "mailman-factors",
             "mailman-stage-sparsity", "two-sparse-factors",
             "two-sparse-stage-sparsity", "dead-codebook-row"])
    def test_refused_codebook_is_a_format_error(self, codebook, message):
        # a gaussian plan file, as earlier versions wrote one, no longer
        # loads; a negative stage sparsity was loaded and written back
        cb = sa.make_codebook("self-designing", 2, 4, seed=3, aux="gaussian")
        doc = json.loads(sa.serialize(sa.DecompositionPlan(2, 4, cb, ())))
        if "kind" in codebook:
            doc["codebook"] = codebook
        else:
            doc["codebook"].update(codebook)
        with pytest.raises(sa.PlanFormatError, match=message):
            sa.deserialize(json.dumps(doc).encode())


@functools.cache
def _text_plans():
    """Plans over every codebook kind for the text reader: random fitted
    and synthetic plans, the edge plans (empty columns, ``EXP_MIN`` beside
    ``EXP_MAX``), a stage with no entries, a plan with no stages and a
    stage of ``2**19`` rows (six-digit row indices), nearly all empty."""
    rng = np.random.default_rng(415)
    plans = [random_plan(rng, max_cols=64, max_stages=4)[0]
             for _ in range(6)]
    plans += [synthetic_plan(rng, max_stages=3) for _ in range(6)]
    plans += _edge_plans()
    for cb in _edge_codebooks():
        k = cb.n_cols
        plans.append(sa.DecompositionPlan(cb.n_rows, k, cb, (
            _stage(k, [[]] * k), _stage(k, [[(k - 1, -1, EXP_MAX)]] * k))))
        plans.append(sa.DecompositionPlan(cb.n_rows, k, cb, ()))
    cb = sa.make_codebook("mailman", 19, 2 ** 19)
    k = cb.n_cols
    tall = [[]] * k
    tall[0], tall[-1] = [(k - 1, -1, EXP_MIN)], [(0, 1, EXP_MAX), (k - 1, 1, 0)]
    plans.append(sa.DecompositionPlan(19, k, cb, (_stage(k, tall),)))
    return plans


@functools.cache
def _table1_data():
    """The seeded 16x1024 Table-1 plan's file: a self-designed codebook and
    fixed stages of sparsity 1 to 16 bits (28 stages)."""
    target = np.random.default_rng([0, 1, 0]).standard_normal((16, 1024))
    cb = sa.make_codebook("self-designing", 16, 1024, target=target,
                          aux="target")
    return sa.serialize(sa.decompose(target, cb, sa.StageSchedule.fixed(
        [1], target_bits=16, max_stages=96)))


def _load_peak(load, data):
    """The ``tracemalloc`` peak of ``load(data)``, after one warm load."""
    load(data)
    tracemalloc.start()
    try:
        load(data)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _compact(doc):
    """``doc`` in ``serialize``'s spelling: compact, keys sorted."""
    return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()


def _in_factors(old, new):
    """An edit of a plan's text: its first ``old`` after ``"factors":``
    becomes ``new``."""
    def edit(text):
        at = text.index('"factors":')
        assert old in text[at:text.index('"kind":', at)]
        return text[:at] + text[at:].replace(old, new, 1)
    return edit


def _factors_as(change):
    """An edit of a plan's text: its codebook's factors, as records,
    become ``change(factors)``, in the same spelling."""
    def edit(text):
        factors = json.loads(text)["codebook"]["factors"]
        spell = functools.partial(json.dumps, separators=(",", ":"))
        assert spell(factors) in text
        return text.replace(spell(factors), spell(change(factors)), 1)
    return edit


def _in_stages(old, new):
    """An edit of a plan's text: its first ``old`` after ``"stages":``
    becomes ``new``."""
    def edit(text):
        at = text.index('"stages":')
        assert old in text[at:]
        return text[:at] + text[at:].replace(old, new, 1)
    return edit


class TestTextReader:
    """``deserialize`` reads a document in ``serialize``'s spelling with
    each stage read straight from its text, and every other document as
    ``json.loads`` and ``from_records`` read it (``deserialize_oracle``)."""

    def test_serialized_plans_load_without_records(self):
        for plan in _text_plans():
            data = sa.serialize(plan)
            with matrices_not_read_from_records() as calls:
                back = sa.deserialize(data)
            assert back == plan and back.metadata == plan.metadata
            assert len(calls) == 0
            assert back == deserialize_oracle(data)

    @settings(max_examples=60, deadline=None)
    @given(plan=_lane_plans())
    def test_random_plans_load_without_records(self, plan):
        data = sa.serialize(plan)
        with matrices_not_read_from_records():
            back = sa.deserialize(data)
        assert back == plan == deserialize_oracle(data)

    def test_table1_plan_loads_without_records(self):
        data = _table1_data()
        plan = deserialize_oracle(data)
        with matrices_not_read_from_records():
            assert sa.deserialize(data) == plan
        assert plan.n_stages == 28

    @staticmethod
    def _base():
        cb = sa.make_codebook("self-designing", 3, 8, seed=4, aux="gaussian")
        stage = _stage(8, [[(j % 8, 1, -j), ((j + 3) % 8, -1, j)]
                           for j in range(8)])
        plan = sa.DecompositionPlan(3, 8, cb, (stage, stage),
                                    {"seed": 4, "note": "x"})
        return sa.serialize(plan).decode()

    @staticmethod
    def _keys_in_order(text, *order):
        d = json.loads(text)
        return json.dumps({k: d[k] for k in order},
                          separators=(",", ":"))

    @pytest.mark.parametrize("edit", [
        _in_stages("],[", "], ["),
        lambda t: t.replace('"stages":[', '"stages": [', 1),
        lambda t: t + "\n",
        lambda t: " " + t,
        _in_stages("[[[", "[ [["),
        _in_stages("[[[0,", "[[[-0,"),
        _in_stages("[[[0,", "[[[00,"),
        _in_stages(",1,0]", ",1,-0]"),
        _in_stages(",1,0]", ",1,0.0]"),
        _in_stages(",1,0]", ",1,1e0]"),
        _in_stages("[[[0,", "[[[1234567890,"),
        _in_stages("[[[0,", "[[[123456789,"),
        _in_stages("[[[0,", "[[[12345678901234567890,"),
        _in_stages("[[[0,", "[[[true,"),
        _in_stages(",-1,", ",true,"),
        _in_stages(",-1,", ",-01,"),
        _in_stages(",-1,", ",2,"),
        _in_stages(",-1,", ",-2,"),
        _in_stages("]]],", "]],[]],"),
        _in_stages("]]],", "]]],[],"),
        lambda t: t.replace('"stages":[', '"stages":[[],', 1),
        lambda t: t.replace('"stages":[[[[', '"stages":[[[[9,1,0],', 1),
        lambda t: TestTextReader._keys_in_order(
            t, "version", "stages", "rows", "metadata", "format",
            "codebook", "cols"),
        lambda t: TestTextReader._keys_in_order(
            t, "cols", "stages", "rows", "metadata", "format", "codebook",
            "version"),
        lambda t: t[:-1] + ',"stages":[]}',
        lambda t: t[:-1] + ',"stages":' + json.dumps(
            json.loads(t)["stages"][:1]) + "}",
        lambda t: t[:-1] + ',"cols":8}',
        lambda t: t[:-1] + ',"cols":9}',
        lambda t: t[:-1] + ',"cols":8.0}',
        lambda t: t.replace('"cols":8', '"cols":true', 1),
        lambda t: t.replace('"cols":8', '"cols":-8', 1),
        lambda t: t.replace('"cols":8', '"cols":4294967296', 1),
        lambda t: t + "x",
        lambda t: t + "{}",
        lambda t: t[:-1],
        lambda t: t[:len(t) // 2],
        lambda t: "\ufeff" + t,
        lambda t: t.replace('"x"', '"\u00e9\u2028"', 1),
        lambda t: t.replace('"stages":[', '"stages":[[[[0,1,0]]],', 1),
        lambda t: "[]",
        lambda t: "",
    ])
    def test_other_spellings_load_as_the_oracle_loads_them(self, edit):
        loads_as_the_oracle(edit(self._base()).encode())

    @pytest.mark.parametrize("edit", [
        _in_factors("],[", "], ["),
        _in_factors("[[[[1,", "[[ [[1,"),
        _in_factors(",1,0]", ",1,-0]"),
        _in_factors("[[0,1,1]", "[[-0,1,1]"),
        _in_factors("[[1,-1,1]", "[[01,-1,1]"),
        _in_factors("[[[[1,", "[[[[1234567890,"),
        _in_factors("[[[[1,", "[[[[123456789,"),
        _in_factors("[[[[1,", "[[[[true,"),
        _in_factors(",-1,1]", ",true,1]"),
        _in_factors(",1,0]", ",1,64]"),
        _in_factors(",1,0]", ",1,1180591620717411303424]"),
        _in_factors(",1,0]", ",1,0.0]"),
        # dead-codebook-row: B1 reads the 3 input wires, B2 the 8 columns
        _in_factors("[2,-1,1]]", "[3,-1,1]]"),
        _in_factors("[7,1,0]]]]", "[8,1,0]]]]"),
        _in_factors("[[0,1,1],[2,-1,-2]]", "[]"),
        _in_factors("]],[[[0,1,0]", "]],[],[[[0,1,0]"),
        lambda t: t.replace('"self-designing"', '"mailman"', 1),
        lambda t: t.replace('"self-designing"', '"two-sparse"', 1),
        lambda t: t.replace('"self-designing"', '["self-designing"]', 1),
        _factors_as(lambda f: f[:1]),
        _factors_as(lambda f: f + f[1:]),
        _factors_as(lambda f: f[::-1]),
        _factors_as(lambda f: []),
        lambda t: _factors_as(lambda f: [])(t).replace(
            '"self-designing"', '"mailman"', 1),
        lambda t: t.replace('"factors":', '"factors":[],"factors":', 1),
        lambda t: t.replace('"factors":[', '"factors":[5,', 1),
        lambda t: t.replace('"factors":[', '"factors":[[],', 1),
        lambda t: t.replace('"factors":', '"factors":5,"factors":', 1),
        lambda t: t.replace('"factors":[', '"factors": [', 1),
        lambda t: t.replace('"rows":3,"stage', '"rows":3.0,"stage', 1),
        lambda t: t.replace('"rows":3,"stage', '"rows":true,"stage', 1),
        lambda t: t.replace('"rows":3,"stage', '"rows":-3,"stage', 1),
        lambda t: t.replace('"rows":3,"stage', '"rows":0,"stage', 1),
        lambda t: t.replace('"cols":8,"factors"', '"cols":9,"factors"', 1),
        lambda t: t.replace('"cols":8,"factors"', '"factors"', 1),
        lambda t: t.replace('"stage_sparsity":1}', '"stage_sparsity":1,'
                            '"rows":2}', 1),
        lambda t: t.replace('{"codebook":', '{"codebook":{"cols":8,"kind":'
                            '"mailman","rows":3},"codebook":', 1),
        lambda t: t[:-1] + ',"codebook":{"cols":8,"kind":"mailman",'
                           '"rows":3}}',
        lambda t: t[:-1] + ',"codebook":' + _compact(
            json.loads(t)["codebook"]).decode() + "}",
        lambda t: t.replace('"codebook":{', '"codebook":{"stage_sparsity":'
                            '1,"rows":3,"kind":"self-designing",', 1),
        lambda t: t.replace('"codebook":{', '"codebook":{ ', 1),
        lambda t: t.replace('"codebook":{', '"codebook":{}', 1),
        lambda t: t[:t.index('"kind":')],
    ])
    def test_respelled_factors_load_as_the_oracle_loads_them(self, edit):
        loads_as_the_oracle(edit(self._base()).encode())

    @pytest.mark.parametrize("rows, cols", [(10 ** 5, 10 ** 9),
                                            (25, 1 << 24)])
    def test_oversized_codebook_refused_before_its_factors_are_read(
            self, monkeypatch, rows, cols):
        def refuse(text):
            raise AssertionError("a factor's text was read")

        monkeypatch.setattr("shiftadd.pow2matrix._json_arrays", refuse)
        doc = json.loads(self._base())
        doc["stages"] = []
        # at the plan's own shape the factors reach the text reader
        with pytest.raises(AssertionError, match="a factor's text was read"):
            sa.deserialize(_compact(doc))
        doc["rows"] = doc["codebook"]["rows"] = rows
        doc["cols"] = doc["codebook"]["cols"] = cols
        with pytest.raises(sa.PlanFormatError, match="exceeds the largest"):
            sa.deserialize(_compact(doc))

    def test_bytes_that_are_not_ascii_load_as_the_oracle(self):
        # a character of two bytes ahead of the stages, and no UTF-8
        text = self._base()
        loads_as_the_oracle(text.replace('"x"', '"\u00e9"').encode())
        loads_as_the_oracle(b"\xff" + text.encode())

    def test_load_peak_memory_of_the_table1_plan(self):
        # json.loads made one list per stored entry: a 10.9 MB peak
        assert _load_peak(sa.deserialize, _table1_data()) < 4_000_000

    def test_load_peak_memory_of_one_long_stage(self):
        # a table2-style plan: one adaptive stage of about 20k entries
        rng = np.random.default_rng([0, 2, 0])
        target = rng.random((10, 1024))
        cb = sa.make_codebook("self-designing", 10, 1024,
                              seed=int(rng.integers(2 ** 62)),
                              aux="gaussian")
        plan = sa.decompose(target, cb, sa.StageSchedule.adaptive(
            16, max_stages=96))
        data = sa.serialize(plan)
        assert plan.n_stages == 1 and plan.stages[0].nnz > 15000
        assert _load_peak(sa.deserialize, data) <= \
            _load_peak(deserialize_oracle, data)


_EDIT_BYTES = b"0123456789-[],:{}\" \n.eEtrufalsnx\xc3\xa9\x00"


def _byte_edits(data, doc, lo=0, hi=None):
    """``doc`` with one to three bytes deleted, inserted or replaced, each
    drawn from ``data`` at or after ``lo`` and before ``hi`` (the end if
    ``None``), a bound that moves with the edits ahead of it."""
    doc = bytearray(doc)
    hi = len(doc) if hi is None else hi
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(["delete", "insert", "replace"]))
        at = data.draw(st.integers(lo, hi - (op != "insert")))
        byte = data.draw(st.sampled_from(_EDIT_BYTES))
        if op == "delete":
            del doc[at]
        elif op == "insert":
            doc.insert(at, byte)
        else:
            doc[at] = byte
        hi += (op == "insert") - (op == "delete")
    return bytes(doc)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_byte_edits_load_as_the_oracle_loads_them(data):
    """One to three bytes deleted, inserted or replaced anywhere in a
    serialized plan: the plan or the error is the oracle's."""
    plan = data.draw(st.sampled_from(_text_plans()[:12]))
    loads_as_the_oracle(_byte_edits(data, sa.serialize(plan)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_codebook_byte_edits_load_as_the_oracle_loads_them(data):
    """One to three bytes deleted, inserted or replaced inside the text of
    a serialized plan's self-designing codebook, its factors among it: the
    plan or the error is the oracle's."""
    plan = data.draw(st.sampled_from(
        [p for p in _text_plans() if p.codebook.kind == "self-designing"]))
    doc = sa.serialize(plan)
    lo = doc.index(b'"codebook":{') + len(b'"codebook":')
    hi = doc.index(b'},"cols":', lo) + 1
    loads_as_the_oracle(_byte_edits(data, doc, lo, hi))


def _fuzz_base_docs():
    rng = np.random.default_rng(412)
    plans = [synthetic_plan(rng, max_stages=2) for _ in range(4)]
    tgt = rng.standard_normal((3, 8))
    for sparsity in (1, 2):
        cb = sa.make_codebook("self-designing", 3, 8, target=tgt,
                              stage_sparsity=sparsity)
        plans.append(sa.decompose(tgt, cb, sa.StageSchedule.fixed([1])))
    return [json.loads(sa.serialize(p)) for p in plans]


_FUZZ_DOCS = _fuzz_base_docs()
# values put where the loader expects an int
_BAD_LEAVES = st.one_of(
    st.floats(), st.booleans(), st.text(max_size=3), st.none(),
    st.integers(-300, 300),
    st.sampled_from([2 ** 31, 2 ** 63, -2 ** 63 - 1, 10 ** 30]),
    st.lists(st.integers(-2, 2), max_size=3))
# rows/cols stay small: a huge consistent shape is a separate hazard
_SHAPES = st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17])


def _paths(node, path=()):
    """Every (path, value) below a JSON node, lists and leaves alike."""
    yield path, node
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, path + (key,))


_LIST_OPS = ["drop", "duplicate", "swap", "truncate", "leaf"]


def _mutate(doc, data):
    op = data.draw(st.sampled_from(_LIST_OPS + ["shape"]))
    if op == "shape":
        where = data.draw(st.sampled_from([doc, doc["codebook"]]))
        where[data.draw(st.sampled_from(["rows", "cols"]))] = \
            data.draw(_SHAPES)
        return
    _mutate_at(doc, data, op)


def _mutate_at(doc, data, op):
    """Apply list operation or leaf replacement ``op`` somewhere in ``doc``."""
    if op == "leaf":
        candidates = [p for p, v in _paths(doc)
                      if p and not isinstance(v, (dict, list))]
    else:
        candidates = [p for p, v in _paths(doc)
                      if isinstance(v, list) and v]
    if not candidates:
        return
    path = data.draw(st.sampled_from(candidates))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if op == "leaf":
        parent[path[-1]] = data.draw(_BAD_LEAVES)
        return
    lst = parent[path[-1]]
    i = data.draw(st.integers(0, len(lst) - 1))
    if op == "drop":
        del lst[i]
    elif op == "duplicate":
        lst.insert(i, json.loads(json.dumps(lst[i])))
    elif op == "swap":
        j = data.draw(st.integers(0, len(lst) - 1))
        lst[i], lst[j] = lst[j], lst[i]
    else:
        del lst[i:]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_plan_loads_or_is_a_format_error(data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(_FUZZ_DOCS))))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data)
    try:
        sa.deserialize(json.dumps(doc).encode())
    except sa.PlanFormatError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_plan_that_loads_reconstructs(data):
    # a document the loader accepts must not fail later, on first use
    doc = json.loads(json.dumps(data.draw(st.sampled_from(_FUZZ_DOCS))))
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(doc, data)
    # the cases the single mutations rarely reach: a shape that plan and
    # codebook agree on, and a negative stage sparsity
    if data.draw(st.booleans()):
        key = data.draw(st.sampled_from(["rows", "cols"]))
        doc[key] = doc["codebook"][key] = data.draw(_SHAPES)
    if "stage_sparsity" in doc["codebook"]:
        doc["codebook"]["stage_sparsity"] = data.draw(st.integers(-3, 3))
    try:
        plan = sa.deserialize(json.dumps(doc).encode())
    except sa.PlanFormatError:
        return
    reconstruct_exact(plan)
    sa.cost_of(plan)


# every stored matrix of the fuzz documents, with its row count: a
# codebook's first factor reads the N input wires
_FUZZ_RECORDS = [(doc["cols"] if i else doc["rows"], rec) for doc in _FUZZ_DOCS
                 for i, rec in enumerate(doc["codebook"].get("factors", []))]
_FUZZ_RECORDS += [(doc["cols"], rec) for doc in _FUZZ_DOCS
                  for rec in doc["stages"]]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_array_loader_rejects_what_the_entry_checks_reject(data):
    rows, rec = data.draw(st.sampled_from(_FUZZ_RECORDS))
    doc = {"records": json.loads(json.dumps(rec))}
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate_at(doc, data, data.draw(st.sampled_from(_LIST_OPS)))
    try:
        want = from_records_oracle(rows, doc["records"])
    except (TypeError, ValueError):
        want = None
    try:
        got = columns(Pow2Matrix.from_records(rows, doc["records"]))
    except ValueError:  # PlanFormatError and DimensionError included
        got = None
    assert got == want
