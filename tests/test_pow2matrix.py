"""Sparse power-of-two matrix container."""

import numpy as np
import pytest

import shiftadd as sa
from shiftadd.pot import EXP_MAX, EXP_MIN, SignedPow2
from shiftadd.pow2matrix import (UNWRITTEN, Pow2Matrix, advance_effective,
                                 shift_add, walk)

from helpers import (advance_effective_oracle, columns, pow2matrix,
                     random_dyadic_vector, same_bits, synthetic_plan)

# all a Pow2Matrix holds: nothing derived from its arrays is kept on it
STORED_FIELDS = {"rows", "cols", "row", "negative", "exp", "col_len"}


def test_dense_and_nnz():
    cols = (((0, SignedPow2(1, 0)), (2, SignedPow2(-1, -1))),
            (),
            ((1, SignedPow2(1, 2)),))
    m = pow2matrix(3, 3, cols)
    assert m.nnz == 3
    assert m.col_len.tolist() == [2, 0, 1]
    assert m.dense().tolist() == [[1, 0, 0], [0, 0, 4], [-0.5, 0, 0]]


def test_validation():
    with pytest.raises(sa.DimensionError):
        pow2matrix(2, 2, (((2, SignedPow2(1, 0)),), ()))
    with pytest.raises(ValueError):
        pow2matrix(2, 2, (((1, SignedPow2(1, 0)), (1, SignedPow2(1, 0))), ()))
    with pytest.raises(ValueError):
        pow2matrix(2, 2, (((1, SignedPow2(1, 0)), (0, SignedPow2(1, 0))), ()))
    with pytest.raises(ValueError):
        pow2matrix(2, 1, (((0, SignedPow2(0, 0)),),))
    with pytest.raises(sa.DimensionError):
        pow2matrix(2, 3, ((), ()))


def test_records_round_trip():
    cols = (((0, SignedPow2(1, 3)), (1, SignedPow2(-1, -7))),
            ((1, SignedPow2(1, 0)),))
    m = pow2matrix(2, 2, cols)
    assert Pow2Matrix.from_records(2, m.to_records()) == m


def test_advance_effective_matches_matmul():
    rng = np.random.default_rng(800)
    eff = rng.standard_normal((3, 5))
    stage = sa.fit_stage(rng.standard_normal((3, 4)), eff, 2)
    assert np.allclose(advance_effective(eff, stage), eff @ stage.dense())
    with pytest.raises(sa.DimensionError):
        advance_effective(rng.standard_normal((3, 6)), stage)


def test_array_storage():
    cols = (((0, SignedPow2(1, 0)), (2, SignedPow2(-1, -1))),
            (),
            ((1, SignedPow2(1, 2)),))
    a = pow2matrix(3, 3, cols)
    assert set(vars(a)) == STORED_FIELDS
    assert a.row.tolist() == [0, 2, 1]
    assert a.negative.tolist() == [False, True, False]
    assert a.exp.tolist() == [0, -1, 2]
    assert a.col_len.tolist() == [2, 0, 1]
    assert a.col.tolist() == [0, 0, 2]
    assert a.first.tolist() == [0, 2, 2]
    assert a.op_counts() == (1, 3, 1)
    stored = (a.row, a.negative, a.exp, a.col_len)
    assert [v.dtype for v in stored] == [np.int32, bool, np.int16, np.int32]
    assert not any(v.flags.writeable for v in stored)
    # each column's point is the smallest exponent it sums
    seg, = walk([a], [0] * 3, [0] * 3)
    assert seg.point[seg.slot].tolist() == [-1, UNWRITTEN, 2]
    seg, = walk([a.transpose()], [0] * 3, [0] * 3)  # and each row's
    assert seg.point[seg.slot].tolist() == [0, 2, -1]
    # walking or transposing keeps nothing on the matrix
    assert set(vars(a)) == STORED_FIELDS
    seg, = walk([pow2matrix(2, 2, ((), ())).transpose()], [0] * 2, [0] * 2)
    assert seg.point[seg.slot].tolist() == [UNWRITTEN] * 2
    assert columns(a) == cols


def test_constructor_checks_the_arrays():
    m = pow2matrix(3, 2, (((0, SignedPow2(1, 0)), (2, SignedPow2(1, 0))),
                          ((1, SignedPow2(-1, EXP_MAX)),)))
    arrays = dict(row=m.row, negative=m.negative, exp=m.exp,
                  col_len=m.col_len)
    assert Pow2Matrix(3, 2, **arrays) == m
    with pytest.raises(sa.DimensionError, match="row index 3"):
        Pow2Matrix(3, 2, **{**arrays, "row": np.array([0, 3, 1])})
    with pytest.raises(ValueError, match="exponent 64"):
        Pow2Matrix(3, 2, **{**arrays, "exp": np.array([0, 64, 1])})
    with pytest.raises(ValueError, match="increasing in column 0"):
        Pow2Matrix(3, 2, **{**arrays, "row": np.array([2, 0, 1])})
    with pytest.raises(sa.DimensionError, match="column lengths"):
        Pow2Matrix(3, 2, **{**arrays, "col_len": np.array([2, 2])})
    with pytest.raises(sa.DimensionError, match="column lengths"):
        Pow2Matrix(3, 2, **{**arrays, "col_len": np.array([4, -1])})
    with pytest.raises(TypeError):
        Pow2Matrix(3, 2, **{**arrays, "negative": np.array([0, 0, 1])})
    with pytest.raises(TypeError):
        Pow2Matrix(3, 2, **{**arrays, "row": np.array([0.0, 2.0, 1.0])})
    with pytest.raises(sa.DimensionError):
        Pow2Matrix(2 ** 31, 2, **arrays)


def test_advance_effective_equals_loop_bit_for_bit():
    rng = np.random.default_rng(801)
    for _ in range(20):
        k = int(rng.integers(1, 48))
        eff = rng.standard_normal((5, k)) * np.exp2(rng.integers(-30, 30,
                                                                 (5, k)))
        eff[rng.random((5, k)) < 0.2] = -0.0  # signed zeros in the sums
        cols = []
        for _ in range(k):
            rows = sorted(rng.choice(k, size=int(rng.integers(0, k + 1)),
                                     replace=False))
            cols.append(tuple((int(i), SignedPow2(int(rng.choice([-1, 1])),
                                                  int(rng.integers(-64, 64))))
                              for i in rows))
        stage = pow2matrix(k, k, tuple(cols))
        assert same_bits(advance_effective(eff, stage),
                         advance_effective_oracle(eff, stage))
    # a lone -0.0 term sums to +0.0, as in the loop
    stage = pow2matrix(2, 1, (((0, SignedPow2(1, 0)),),))
    assert not np.signbit(advance_effective(np.array([[-0.0, 1.0]]),
                                            stage)).any()


def test_advance_effective_bits_on_adaptive_stage():
    # one adaptive stage: many terms per column
    rng = np.random.default_rng(802)
    tgt = rng.random((4, 64))
    cb = sa.make_codebook("self-designing", 4, 64, seed=1, aux="gaussian")
    plan = sa.decompose(tgt, cb, sa.StageSchedule.adaptive(16))
    stage, = plan.stages
    assert stage.col_len.max() >= 8
    eff = cb.dense()
    assert same_bits(advance_effective(eff, stage),
                     advance_effective_oracle(eff, stage))


def test_matrices_keep_nothing_and_segments_are_built_once():
    rng = np.random.default_rng(803)
    plan = synthetic_plan(rng, max_stages=3)
    while not plan.stages:
        plan = synthetic_plan(rng, max_stages=3)
    x = random_dyadic_vector(rng, plan.n_cols)
    y, _ = sa.apply(plan, x)
    sa.reconstruct(plan)
    for mat in plan.chain:  # neither exact path caches on a matrix
        assert set(vars(mat)) == STORED_FIELDS
    assert plan.segments is plan.segments
    seg = plan.segments[0]
    assert not any(a.flags.writeable for a in seg)
    assert seg.lshift.dtype == object
    assert all(type(s) is int and s > 0 for s in seg.lshift.tolist())
    back = sa.deserialize(sa.serialize(plan))
    assert "segments" not in vars(back)  # loading schedules nothing
    assert sa.apply(back, x)[0] == y
    assert "segments" in vars(back)
    for mat in back.chain:
        assert set(vars(mat)) == STORED_FIELDS
    for old, new in zip(plan.segments, back.segments, strict=True):
        assert new.shifted is not old.shifted
        for a, b in zip(new, old):
            assert np.array_equal(a, b)


def _edge_matrices(rng):
    """Random sparse matrices of many shapes, with empty rows and columns,
    exponents often at ``EXP_MIN`` or ``EXP_MAX``, and the empty ones."""
    out = [pow2matrix(0, 0, ()), pow2matrix(0, 3, ((), (), ())),
           pow2matrix(3, 0, ()), pow2matrix(2, 2, ((), ()))]
    for rows, cols in ((1, 5), (5, 1), (3, 7), (7, 3), (6, 6), (16, 40)):
        for density in (0.1, 0.4, 1.0):
            pick = rng.random((rows, cols)) < density
            pick[rng.integers(rows)] = False
            pick[:, rng.integers(cols)] = False
            exps = rng.choice([EXP_MIN, EXP_MAX, 0, -7, 12], (rows, cols))
            signs = rng.choice([-1, 1], (rows, cols))
            out.append(pow2matrix(rows, cols, tuple(
                tuple((int(i), SignedPow2(int(signs[i, k]), int(exps[i, k])))
                      for i in np.flatnonzero(pick[:, k]))
                for k in range(cols))))
    return out


def test_transpose():
    rng = np.random.default_rng(806)
    for mat in _edge_matrices(rng):
        t = mat.transpose()
        assert (t.rows, t.cols) == (mat.cols, mat.rows)
        assert t.transpose() == mat
        assert np.array_equal(t.dense(), mat.dense().T)
        assert t.nnz == mat.nnz
        # the engine's pairwise additions: nnz - (nonempty rows)
        rows_hit = len(np.unique(mat.row))
        assert t.op_counts() == (mat.nnz - rows_hit, mat.nnz,
                                 mat.op_counts()[2])
        # built by the constructor, into its narrow read-only arrays
        stored = (t.row, t.negative, t.exp, t.col_len)
        assert [v.dtype for v in stored] == [np.int32, bool, np.int16,
                                             np.int32]
        assert not any(v.flags.writeable for v in stored)
        assert mat.transpose() is not t  # and not cached


def test_transposed_chain_counts_what_the_engine_executes():
    # the 16x256 plan of the deploy benchmark at seed 0: cost_of counts
    # m - 1 per column, the engine sums rows, and the gap is the transpose
    target = np.random.default_rng([0, 3, 0]).standard_normal((16, 256))
    cb = sa.make_codebook("self-designing", 16, 256, target=target,
                          aux="target")
    plan = sa.decompose(target, cb, sa.StageSchedule.fixed(
        [1], target_bits=16, max_stages=96))
    executed = [m.transpose().op_counts()[0] for m in plan.chain]
    assert sum(executed) == 10_799
    assert sa.cost_of(plan).additions == 10_496
    # nnz - (nonempty rows), from the segments the engine runs
    assert executed == [len(seg.source) - len(seg.starts)
                        for seg in reversed(plan.segments)]


def test_shift_add_on_non_square_matrices():
    # mat @ h over row segments and block @ mat over column segments, on
    # matrices with empty rows and columns, against exact integer products
    rng = np.random.default_rng(804)
    for rows, cols in ((1, 5), (5, 1), (3, 7), (7, 3), (6, 6)):
        for _ in range(5):
            pick = rng.random((rows, cols)) < 0.4
            pick[rng.integers(rows)] = False  # one empty row at least
            exps = rng.integers(-64, 64, (rows, cols))
            signs = rng.choice([-1, 1], (rows, cols))
            mat = pow2matrix(rows, cols, tuple(
                tuple((int(i), SignedPow2(int(signs[i, k]), int(exps[i, k])))
                      for i in np.flatnonzero(pick[:, k]))
                for k in range(cols)))
            # integer entries of mat / 2**low
            low = int(exps[pick].min(initial=0))
            ints = [[int(signs[i, k]) << int(exps[i, k] - low)
                     if pick[i, k] else 0 for k in range(cols)]
                    for i in range(rows)]
            h = [int(v) for v in rng.integers(-2 ** 40, 2 ** 40, cols)]
            seg, = walk([mat.transpose()], [0] * cols, [41] * cols)
            assert _product(h, seg, low) == [
                sum(a * b for a, b in zip(r, h)) for r in ints]
            for b in rng.integers(-2 ** 40, 2 ** 40, (2, rows)).tolist():
                seg, = walk([mat], [0] * rows, [41] * rows)
                assert _product(b, seg, low) == [
                    sum(b[i] * ints[i][k] for i in range(rows))
                    for k in range(cols)]


def _product(h, seg, low):
    """``shift_add`` of the wire vector of ``h`` (its constant 0 appended)
    as integers over ``2**low`` per output, each within its bound; an
    unwritten output holds 0."""
    got = shift_add(np.array(h + [0], dtype=object), seg)
    assert got[-1] == 0
    out = []
    for j in seg.slot.tolist():
        v, p = got[j], int(seg.point[j])
        assert abs(v).bit_length() <= seg.bits[j]
        if p == UNWRITTEN:
            assert v == 0
            p = low
        out.append(v << (p - low))
    return out
