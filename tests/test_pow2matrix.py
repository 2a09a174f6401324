"""Sparse power-of-two matrix container."""

import numpy as np
import pytest

import shiftadd as sa
from shiftadd.pot import EXP_MAX, SignedPow2
from shiftadd.pow2matrix import Pow2Matrix, advance_effective, shift_add

from helpers import (advance_effective_oracle, columns, pow2matrix,
                     random_dyadic_vector, same_bits, synthetic_plan)


def test_dense_and_nnz():
    cols = (((0, SignedPow2(1, 0)), (2, SignedPow2(-1, -1))),
            (),
            ((1, SignedPow2(1, 2)),))
    m = pow2matrix(3, 3, cols)
    assert m.nnz == 3
    assert m.column_nnz() == [2, 0, 1]
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
    stored_fields = {"rows", "cols", "row", "negative", "exp", "col_len"}
    assert set(vars(a)) == stored_fields  # nothing derived is built eagerly
    assert a.row.tolist() == [0, 2, 1]
    assert a.negative.tolist() == [False, True, False]
    assert a.exp.tolist() == [0, -1, 2]
    assert a.col_len.tolist() == [2, 0, 1]
    assert a.col.tolist() == [0, 0, 2]
    assert a.first.tolist() == [0, 2, 2]
    assert a.min_exp == -1
    assert a.op_counts() == (1, 3, 1)
    stored = (a.row, a.negative, a.exp, a.col_len)
    assert [v.dtype for v in stored] == [np.int32, bool, np.int16, np.int32]
    assert not any(v.flags.writeable for v in stored)
    # only the cached derived values are kept, and only once asked for
    assert set(vars(a)) == stored_fields | {"min_exp"}
    assert pow2matrix(2, 2, ((), ())).min_exp == 0
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
    assert max(stage.column_nnz()) >= 8
    eff = cb.dense()
    assert same_bits(advance_effective(eff, stage),
                     advance_effective_oracle(eff, stage))


def test_derived_values_are_cached_read_only_and_fresh_after_loading():
    rng = np.random.default_rng(803)
    plan = synthetic_plan(rng, max_stages=3)
    while not plan.stages:
        plan = synthetic_plan(rng, max_stages=3)
    derived = ("min_exp", "lshift", "by_row", "by_col")
    x = random_dyadic_vector(rng, plan.n_cols)
    y, _ = sa.apply(plan, x)
    sa.reconstruct(plan)
    stage = plan.stages[0]
    for name in derived:  # built once, then the same object
        assert getattr(stage, name) is getattr(stage, name)
    arrays = [stage.lshift, *stage.by_row[:5], *stage.by_col[:5]]
    assert not any(a.flags.writeable for a in arrays)
    assert stage.by_row.lshift.dtype == object
    assert type(stage.by_row.lshift.tolist()[0]) is int
    back = sa.deserialize(sa.serialize(plan))
    for mat in back.stages + back.codebook.factors:
        assert not set(derived) & set(vars(mat))
    assert sa.apply(back, x)[0] == y
    for old, new in zip(plan.stages, back.stages):
        assert new.min_exp == old.min_exp
        assert new.lshift is not old.lshift
        assert np.array_equal(new.lshift, old.lshift)
        for view in ("by_row", "by_col"):
            for a, b in zip(getattr(new, view), getattr(old, view)):
                assert np.array_equal(a, b)


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
            # integer entries of mat / 2**min_exp
            ints = [[int(signs[i, k]) << int(exps[i, k] - mat.min_exp)
                     if pick[i, k] else 0 for k in range(cols)]
                    for i in range(rows)]
            h = [int(v) for v in rng.integers(-2 ** 40, 2 ** 40, cols)]
            got = shift_add(np.array(h, dtype=object), mat.by_row)
            assert got.tolist() == [sum(a * b for a, b in zip(r, h))
                                    for r in ints]
            block = rng.integers(-2 ** 40, 2 ** 40, (2, rows)).tolist()
            got = shift_add(np.array(block, dtype=object), mat.by_col)
            assert got.tolist() == [
                [sum(b[i] * ints[i][k] for i in range(rows))
                 for k in range(cols)] for b in block]
