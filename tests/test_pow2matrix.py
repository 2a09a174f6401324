"""Sparse power-of-two matrix container."""

import dataclasses
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shiftadd as sa
from shiftadd.pot import EXP_MAX, EXP_MIN, SignedPow2
from shiftadd.pow2matrix import (UNWRITTEN, Pow2Matrix, _pieces,
                                 advance_effective, schedule, serve)

from helpers import (advance_effective_oracle, columns, pow2matrix,
                     random_dyadic_vector, random_plan, same_bits,
                     synthetic_plan, transpose)

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
    # each column's point is the smallest exponent it sums; the store is
    # the constant 0, the three inputs, then the sums.  Column 2 is an
    # alias of its one unnegated entry's input, column 1 at the constant 0
    sched = schedule([a], [0] * 3, [0] * 3, "columns")
    assert sched.point.tolist() == [-1, UNWRITTEN, 2]
    assert sched.slot.tolist() == [4, 0, 2] and sched.size == 5
    # and each row's, straight from the columns: rows 0 and 1 are aliases,
    # row 2 is negated
    sched = schedule([a], [0] * 3, [0] * 3, "rows")
    assert sched.point.tolist() == [0, 2, -1]
    assert sched.slot.tolist() == [1, 3, 4] and sched.size == 5
    # scheduling keeps nothing on the matrix
    assert set(vars(a)) == STORED_FIELDS
    for by in ("rows", "columns"):
        sched = schedule([pow2matrix(2, 2, ((), ()))], [0] * 2, [0] * 2, by)
        assert sched.point.tolist() == [UNWRITTEN] * 2
        assert sched.slot.tolist() == [0] * 2
    with pytest.raises(ValueError, match="by must be"):
        schedule([a], [0] * 3, [0] * 3, "row")
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


@pytest.mark.parametrize("empty", [False, True])
def test_advance_effective_mask_free_positions(empty):
    # positions that every column reaches are added without a mask: a
    # stage whose every column holds two entries, and one with empty
    # columns, over -0.0 entries that a first term reads
    rng = np.random.default_rng(803)
    eff = rng.standard_normal((4, 6))
    eff[:, [0, 3]] = -0.0
    cols = [tuple((int(i), SignedPow2(int(rng.choice([-1, 1])),
                                      int(rng.integers(-8, 8))))
                  for i in sorted(rng.choice(6, 2, replace=False)))
            for _ in range(5)]
    cols[0] = ((0, SignedPow2(1, 0)), (3, SignedPow2(1, 2)))
    if empty:
        cols[2] = cols[4] = ()
    stage = pow2matrix(6, 5, tuple(cols))
    out = advance_effective(eff, stage)
    assert same_bits(out, advance_effective_oracle(eff, stage))
    assert not np.signbit(out[:, 0]).any()


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
    assert plan.schedule is plan.schedule
    for seg in plan.schedule.steps:
        assert not any(a.flags.writeable for a in seg)
        assert seg.lshift.dtype == object
        assert all(type(s) is int and s > 0 for s in seg.lshift.tolist())
    back = sa.deserialize(sa.serialize(plan))
    assert "schedule" not in vars(back)  # loading schedules nothing
    assert sa.apply(back, x)[0] == y
    assert "schedule" in vars(back)
    for mat in back.chain:
        assert set(vars(mat)) == STORED_FIELDS
    old, new = plan.schedule, back.schedule
    assert (new.size, new.counts) == (old.size, old.counts)
    assert np.array_equal(new.slot, old.slot)
    assert np.array_equal(new.point, old.point)
    for old, new in zip(old.steps, new.steps, strict=True):
        assert new.shifted is not old.shifted
        for a, b in zip(new, old):
            assert np.array_equal(a, b)


def test_building_a_loaded_plans_schedule_runs_no_constructor(monkeypatch):
    # the schedule reads each matrix's stored arrays; no transpose or other
    # checked matrix is built on the way, for any codebook kind (a mailman
    # codebook derives its factors on first use, here before the count)
    built = []
    check = Pow2Matrix.__post_init__

    def counted(mat):
        built.append(mat)
        check(mat)

    rng = np.random.default_rng(807)
    plans = [synthetic_plan(rng) for _ in range(4)] + \
        [random_plan(rng, max_cols=16, max_stages=3)[0] for _ in range(4)]
    loaded = [sa.deserialize(sa.serialize(plan)) for plan in plans]
    assert all(plan.codebook.chain for plan in loaded)
    monkeypatch.setattr(Pow2Matrix, "__post_init__", counted)
    for plan in loaded:
        assert plan.schedule.steps
        sa.apply(plan, random_dyadic_vector(rng, plan.n_cols))
    assert built == []
    transpose(loaded[0].chain[0])  # the counter sees a constructor run
    assert len(built) == 1


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
        t = transpose(mat)
        assert (t.rows, t.cols) == (mat.cols, mat.rows)
        assert transpose(t) == mat
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


def _dumps(mat):
    return json.dumps(mat.to_records(), separators=(",", ":"))


# row counts whose indices run from 1 to 6 digits, and index edges
_ROW_COUNTS = (0, 1, 2, 3, 10, 11, 100, 101, 1000, 1024, 10000, 12345,
               2 ** 19)
_ROW_EDGES = (0, 9, 10, 99, 100, 999, 1000, 9999, 10000)


@st.composite
def _json_matrices(draw):
    rows = draw(st.sampled_from(_ROW_COUNTS))
    edges = [i for i in _ROW_EDGES if i < rows] + [rows - 1]
    index = st.integers(0, rows - 1) | st.sampled_from(edges)
    coef = st.tuples(st.sampled_from([-1, 1]),
                     st.sampled_from([EXP_MIN, EXP_MAX])
                     | st.integers(EXP_MIN, EXP_MAX))
    records = []
    for _ in range(draw(st.integers(0, 6))):
        picked = sorted(draw(st.sets(index, max_size=min(rows, 5)))) \
            if rows else []
        records.append([[i, *draw(coef)] for i in picked])
    return Pow2Matrix.from_records(rows, records)


@settings(max_examples=300, deadline=None)
@given(mat=_json_matrices())
def test_to_json_is_json_dumps(mat):
    # every example changes the row count between calls, so a row table
    # kept from another count would write the wrong pieces
    for m in (mat, dataclasses.replace(mat, rows=mat.rows + 1), mat):
        assert m.to_json() == _dumps(m)


def test_to_json_edge_matrices():
    rng = np.random.default_rng(809)
    for mat in _edge_matrices(rng):
        assert mat.to_json() == _dumps(mat)
    # no columns, no rows, all columns empty
    assert pow2matrix(4, 0, ()).to_json() == "[]"
    assert pow2matrix(0, 3, ((), (), ())).to_json() == "[[],[],[]]"
    every = tuple(((i, SignedPow2(s, e)),) for i in (0, 9, 10, 99999)
                  for s in (1, -1) for e in (EXP_MIN, -1, 0, EXP_MAX))
    mat = pow2matrix(100000, len(every), every)
    assert mat.to_json() == _dumps(mat)


def _one_per_row(rows):
    """A ``rows x rows`` matrix with one entry in each row, as many entries
    as rows, like a plan's matrices: ``to_json`` caches its row table."""
    return Pow2Matrix.from_records(
        rows, [[[rows - 1 - i, 1, 0]] for i in range(rows)])


def test_to_json_keeps_only_the_last_row_table():
    big = _one_per_row(1024)
    assert big.to_json() == _dumps(big)
    table = weakref.ref(_pieces(1024))
    small = _one_per_row(3)
    assert small.to_json() == "[[[2,1,0]],[[1,1,0]],[[0,1,0]]]"
    assert table() is None and _pieces.cache_info().currsize == 1


def test_to_json_of_a_tall_sparse_matrix_leaves_the_cached_table():
    # a matrix with fewer entries than rows gets pieces for the rows in
    # use alone (a table of all 2**19 rows took 572 ms and 80 MB), and the
    # plan matrices' cached table stays
    plan_matrix = _one_per_row(64)
    plan_matrix.to_json()
    table = _pieces(64)
    calls = _pieces.cache_info()
    for tall in (Pow2Matrix.from_records(2 ** 19, [[[2 ** 19 - 1, 1, 0]]]),
                 pow2matrix(100000, 3, (((7, SignedPow2(1, EXP_MIN)),
                                         (99999, SignedPow2(-1, EXP_MAX))),
                                        (), ((7, SignedPow2(1, 0)),)))):
        assert tall.to_json() == _dumps(tall)
    assert _pieces.cache_info() == calls and _pieces(64) is table
    assert plan_matrix.to_json() == _dumps(plan_matrix)


@settings(max_examples=300, deadline=None)
@given(mat=_json_matrices())
def test_from_json_inverts_to_json(mat):
    back = Pow2Matrix.from_json(mat.rows, mat.to_json())
    assert back == mat and set(vars(back)) == STORED_FIELDS


def test_from_json_edge_matrices():
    rng = np.random.default_rng(810)
    tall = Pow2Matrix.from_records(2 ** 19, [[[2 ** 19 - 1, -1, EXP_MIN]],
                                             [], [[0, 1, EXP_MAX]]])
    for mat in (*_edge_matrices(rng), tall, pow2matrix(4, 0, ()),
                pow2matrix(0, 3, ((), (), ())), _one_per_row(1024)):
        back = Pow2Matrix.from_json(mat.rows, mat.to_json())
        assert back == mat
        stored = (back.row, back.negative, back.exp, back.col_len)
        assert [v.dtype for v in stored] == [np.int32, bool, np.int16,
                                             np.int32]
        assert not any(v.flags.writeable for v in stored)


def _from_json_oracle(rows, text):
    """The matrix whose ``to_json()`` is ``text``, read by ``json`` and
    ``from_records``, or ``None``."""
    try:
        mat = Pow2Matrix.from_records(rows, json.loads(text))
    except ValueError:  # not JSON, not records, or not a matrix
        return None
    return mat if mat.to_json() == text else None


# the bytes of to_json's spelling, and some that it never writes
_TEXT_EDITS = "0123456789-[],[] .e\u00e9"


@settings(max_examples=500, deadline=None)
@given(mat=_json_matrices(), data=st.data())
def test_from_json_reads_only_what_to_json_writes(mat, data):
    # a text with characters deleted, inserted or replaced is read as the
    # matrix that writes it, if there is one, and is None otherwise
    text = list(mat.to_json())
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(["delete", "insert", "replace"])) \
            if text else "insert"
        at = data.draw(st.integers(0, len(text) - (op != "insert")))
        char = data.draw(st.sampled_from(_TEXT_EDITS))
        if op == "delete":
            del text[at]
        elif op == "insert":
            text.insert(at, char)
        else:
            text[at] = char
    text = "".join(text)
    rows = data.draw(st.sampled_from([mat.rows, mat.rows + 1, 0, -1]))
    want = _from_json_oracle(rows, text)
    got = Pow2Matrix.from_json(rows, text)
    assert got == want if want is not None else got is None


@pytest.mark.parametrize("text", [
    "", "[", "]", "[]]", "7", "[7]", "[[7]]", "[[[0,1]]]", "[[[0,1,0,0]]]",
    "[[[0,1,0]]", "[[[0,1,0]]]]", " [[[0,1,0]]]", "[[[0,1,0]]] ",
    "[[[0, 1,0]]]", "[[[-0,1,0]]]", "[[[00,1,0]]]", "[[[0,01,0]]]",
    "[[[0,1,-0]]]", "[[[0,0,0]]]", "[[[0,-2,0]]]", "[[[0,1,64]]]",
    "[[[0,1,-65]]]", "[[[4,1,0]]]", "[[[1,1,0],[0,1,0]]]",
    "[[[123456789,1,0]]]", "[[[1234567890,1,0]]]", "[[[0,1,0.0]]]",
    "[[[0,1,1e0]]]", "[[[0,true,0]]]", '[[["0",1,0]]]', "[[[0,1,0]],]",
    "[[[0,1,0]],[]", "{}", "\u00e9", "[[[0,1,0]]]\u00e9", "[[[\u0660,1,0]]]",
    "[[[0,1,0]]][[[0,1,0]]]", "[[[0,1,0]]],[[[0,1,0]]]"])
def test_from_json_refuses_every_other_spelling(text):
    assert Pow2Matrix.from_json(4, text) is None


def test_transposed_chain_counts_what_the_engine_executes():
    # the 16x256 plan of the deploy benchmark at seed 0: cost_of counts
    # m - 1 per column, the engine sums rows, and the gap is the transpose
    target = np.random.default_rng([0, 3, 0]).standard_normal((16, 256))
    cb = sa.make_codebook("self-designing", 16, 256, target=target,
                          aux="target")
    plan = sa.decompose(target, cb, sa.StageSchedule.fixed(
        [1], target_bits=16, max_stages=96))
    executed = [transpose(m).op_counts()[0] for m in plan.chain]
    assert sum(executed) == 10_799
    assert sa.cost_of(plan).additions == 10_496
    # nnz - (nonempty rows), from the steps the engine runs: an alias is a
    # row of one entry, which adds nothing
    steps = plan.schedule.steps[::-1]
    assert executed == [len(seg.source) - len(seg.starts) for seg in steps]
    # the counted triples, aliases as their one entry, are op_counts
    assert plan.schedule.counts[::-1] == tuple(m.op_counts()
                                               for m in plan.chain)
    # 3,918 of the 20,992 entries are rows of their own: 17,074 terms in
    # 6,275 sums run per vector
    assert sum(len(seg.source) for seg in steps) == 17_074
    assert sum(len(seg.starts) for seg in steps) == 6_275


def test_shift_add_on_non_square_matrices():
    # mat @ h by rows and b @ mat by columns, each also as the other
    # orientation of the transpose, on matrices with empty rows and
    # columns, against exact integer products
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
            want = [sum(a * b for a, b in zip(r, h)) for r in ints]
            for m, by in ((mat, "rows"), (transpose(mat), "columns")):
                sched = schedule([m], [0] * cols, [41] * cols, by)
                assert _product(h, sched, low) == want
            for b in rng.integers(-2 ** 40, 2 ** 40, (2, rows)).tolist():
                want = [sum(b[i] * ints[i][k] for i in range(rows))
                        for k in range(cols)]
                for m, by in ((mat, "columns"), (transpose(mat), "rows")):
                    sched = schedule([m], [0] * rows, [41] * rows, by)
                    assert _product(b, sched, low) == want


def _random_chain(rng):
    """A chain of two to five random matrices, each at most 8 wide, with
    empty rows and columns, one-entry ones and exponents at both ends: the
    rows of each are the columns of the next."""
    dims = rng.choice([1, 3, 8], size=int(rng.integers(3, 7)))
    mats = []
    for cols, rows in zip(dims[:-1].tolist(), dims[1:].tolist()):
        pick = rng.random((rows, cols)) < rng.choice([0.1, 0.3, 0.6])
        exps = rng.choice([EXP_MIN, EXP_MAX, 0, -7, 12], (rows, cols))
        signs = rng.choice([-1, 1], (rows, cols))
        mats.append(pow2matrix(rows, cols, tuple(
            tuple((int(i), SignedPow2(int(signs[i, k]), int(exps[i, k])))
                  for i in np.flatnonzero(pick[:, k]))
            for k in range(cols))))
    return mats


def test_rows_of_a_chain_equal_columns_of_its_transposes():
    # one builder for both orientations: the rows of each matrix of a
    # chain, summed from its columns with rows of one unnegated entry
    # aliased, are the columns of its transpose.  Every step, point,
    # bound, slot and release bound is the same, and so are the integers
    # and the shifts and sign changes counted.  Additions are counted as
    # m - 1 per column of the scheduled matrix: the cost model's count of
    # mat by rows, and the executed count of the transpose by columns
    rng = np.random.default_rng(808)
    for _ in range(40):
        mats = _random_chain(rng)
        start = [0] * mats[0].cols
        rows = schedule(mats, start, start, "rows")
        cols = schedule(map(transpose, mats), start, start, "columns")
        for a, b in zip(rows.steps, cols.steps, strict=True):
            for x, y in zip(a, b, strict=True):
                assert np.array_equal(x, y)
        assert (rows.size, rows.release) == (cols.size, cols.release)
        for m, seg, r, c in zip(mats, rows.steps, rows.counts, cols.counts,
                                strict=True):
            assert r == m.op_counts()
            assert c == (len(seg.source) - len(seg.starts), *r[1:])
        h = [int(v) for v in rng.integers(-2 ** 20, 2 ** 20, len(start))]
        got, point = serve(h, rows)
        want, want_point = serve(h, cols)
        assert got.tolist() == want.tolist()
        assert point.tolist() == want_point.tolist()


def test_released_wires_are_never_read():
    # after each step serve drops the store's wires from 1 up to its
    # release bound: no later step and no final output reads one of them,
    # only the constant 0 below.  By rows a chain runs mat @ h, by columns
    # its reverse runs h @ mat, from inputs some of which are unwritten
    rng = np.random.default_rng(809)
    freed = stored = 0
    for _ in range(60):
        mats = _random_chain(rng)
        for chain, by in ((mats, "rows"), (mats[::-1], "columns")):
            width = chain[0].cols if by == "rows" else chain[0].rows
            written = rng.random(width) < 0.7
            sched = schedule(chain, np.where(written, 0, UNWRITTEN), written,
                             by)
            assert list(sched.release) == sorted(sched.release)
            assert len(sched.release) == len(sched.steps)
            dead = 1
            for seg, bound in zip(sched.steps, sched.release):
                assert (seg.source[seg.source > 0] >= dead).all()
                assert bound <= sched.size
                dead = bound
            assert (sched.slot[sched.slot > 0] >= dead).all()
            freed, stored = freed + dead - 1, stored + sched.size - 1
    # most wires are dropped before the end
    assert freed > stored // 2


def _product(h, sched, low):
    """``serve`` of the input wires ``h`` through the one-matrix schedule
    ``sched`` as integers over ``2**low`` per output, each within its
    bound."""
    out, point = serve(h, sched)
    seg, = sched.steps
    for v, bits in zip(out.tolist(), seg.bits.tolist()):
        assert abs(v).bit_length() <= bits
    return _at(out, point, low)


def _at(values, point, low):
    """Integers worth ``2**point`` as integers over ``2**low``; an
    unwritten one holds 0."""
    out = []
    for v, p in zip(values.tolist(), point.tolist()):
        if p == UNWRITTEN:
            assert v == 0
            p = low
        out.append(v << (p - low))
    return out
