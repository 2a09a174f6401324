"""Shared test utilities: random plan/vector generators and exact oracles."""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import operator
from fractions import Fraction
from unittest import mock

import numpy as np

import shiftadd as sa
from shiftadd.codebooks import mailman_apply
from shiftadd.plan import plan_from_dict, reconstruct_exact
from shiftadd.pot import (EXP_MAX, EXP_MIN, Dyadic, SignedPow2,
                          align)


# ---------------------------------------------------------------------------
# the column-tuple view of a Pow2Matrix: ((row, SignedPow2), ...) per column
# ---------------------------------------------------------------------------

def columns(mat):
    """The columns of ``mat`` as tuples of ``(row, SignedPow2)``."""
    return tuple(tuple((i, SignedPow2(s, e)) for i, s, e in col)
                 for col in mat.to_records())


def pow2matrix(rows, cols, cols_tuples):
    """A ``Pow2Matrix`` built from column tuples of ``(row, SignedPow2)``,
    through ``from_records`` and the constructor, so both check it."""
    mat = sa.Pow2Matrix.from_records(
        rows, [[[i, c.sign, c.exponent] for i, c in col]
               for col in cols_tuples])
    return dataclasses.replace(mat, cols=cols)


def transpose(mat):
    """The ``cols x rows`` transpose of ``mat``, built through the
    constructor's checks: its column ``r`` holds row ``r``'s entries in
    column order.  The engine sums the rows of each matrix straight from
    its column-major arrays; the transpose's columns are the oracle for
    those sums."""
    order = np.argsort(mat.row, kind="stable")
    return sa.Pow2Matrix(mat.cols, mat.rows, mat.col[order],
                         mat.negative[order], mat.exp[order],
                         np.bincount(mat.row, minlength=mat.rows))


def from_records_oracle(rows, records):
    """``Pow2Matrix.from_records`` as it was per entry: the column tuples of
    a record list, or the exception the per-entry checks raise.  Every
    leaf is an integer, and not a boolean."""
    def index(leaf):
        if isinstance(leaf, bool):
            raise TypeError("a boolean is not an integer leaf")
        return operator.index(leaf)

    cols = []
    for col in records:
        entries = []
        for i, s, e in col:
            c = index(s), index(e)
            if c[0] not in (-1, 1) or not EXP_MIN <= c[1] <= EXP_MAX:
                raise sa.PlanFormatError(f"bad coefficient {c}")
            entries.append((index(i), SignedPow2(*c)))
        prev = -1
        for i, _ in entries:
            if not 0 <= i < rows:
                raise sa.DimensionError(f"row index {i} out of range")
            if i <= prev:
                raise ValueError("row indices must be strictly increasing")
            prev = i
        cols.append(tuple(entries))
    return tuple(cols)


def deserialize_oracle(data):
    """``deserialize`` as it read every document before stages were read
    from their text: ``json.loads``, then ``plan_from_dict``, whose
    ``Pow2Matrix.from_records`` reads every stage, with ``deserialize``'s
    errors for text that is not a JSON object."""
    try:
        d = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise sa.PlanFormatError(f"malformed plan document: {exc}") from exc
    if not isinstance(d, dict):
        raise sa.PlanFormatError("plan document must be a JSON object")
    return plan_from_dict(d)


def loads_as_the_oracle(data):
    """``deserialize(data)`` is the oracle's plan, metadata included, or
    fails with an exception of the oracle's type and message.  Returns the
    plan, or ``None``."""
    try:
        want = deserialize_oracle(data)
    except Exception as exc:  # every failure is compared below
        want = exc
    try:
        got = sa.deserialize(data)
    except Exception as exc:
        got = exc
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return None
    assert got == want and got.metadata == want.metadata
    return got


@contextlib.contextmanager
def stages_not_read_from_records(plan):
    """Fail the ``Pow2Matrix.from_records`` calls beyond those of the
    codebook factors that ``plan``'s file stores: inside, a stage that
    goes through ``from_records`` fails its load."""
    allowed = len(plan.codebook.to_dict().get("factors", ()))
    from_records = sa.Pow2Matrix.from_records.__func__
    calls = []

    def counted(cls, rows, records):
        calls.append(rows)
        if len(calls) > allowed:
            raise AssertionError("a stage was read by from_records")
        return from_records(cls, rows, records)

    with mock.patch.object(sa.Pow2Matrix, "from_records",
                           classmethod(counted)):
        yield calls


def cost_oracle(plan):
    """``(additions, shifts, sign_changes, per_stage)`` of a plan counted
    over the column tuples: the third witness next to ``cost_of`` and the
    engine's counters."""
    def count(mat):
        cols = columns(mat)
        return (sum(max(0, len(col) - 1) for col in cols),
                sum(len(col) for col in cols),
                sum(1 for col in cols for _, c in col if c.sign < 0))

    cb = plan.codebook
    if cb.kind == "mailman":
        total = [sa.mailman_additions(cb.n_rows), 0, 0]
    else:
        total = [sum(c) for c in zip(*map(count, cb.factors))]
    per_stage = []
    for stage in plan.stages:
        counts = count(stage)
        total = [t + c for t, c in zip(total, counts)]
        per_stage.append(counts[0])
    return (*total, tuple(per_stage))


def columns_collinear(col_a, col_b):
    """Exact collinearity test of two column tuples:
    ``a * <b, b> == b * <a, b>`` componentwise."""
    a = {i: Fraction(c.sign) * Fraction(2) ** c.exponent for i, c in col_a}
    b = {i: Fraction(c.sign) * Fraction(2) ** c.exponent for i, c in col_b}
    if not a or not b:
        return not a and not b
    bb = sum(v * v for v in b.values())
    ab = sum(a[i] * b[i] for i in a.keys() & b.keys())
    return all(a.get(i, 0) * bb == b.get(i, 0) * ab
               for i in a.keys() | b.keys())


def has_collinear_pair(mat):
    cols = columns(mat)
    return any(columns_collinear(cols[j], cols[k])
               for j in range(len(cols)) for k in range(j + 1, len(cols)))


def random_dyadic_vector(rng, length, mant_range=64, exp_range=6):
    out = []
    for _ in range(length):
        m = int(rng.integers(-mant_range, mant_range + 1))
        e = int(rng.integers(-exp_range, exp_range + 1))
        out.append(sa.Dyadic(m, e))
    return out


def random_plan(rng, max_cols=256, max_stages=8):
    """A random plan over a random shift-add codebook kind."""
    kind = rng.choice(["mailman", "two-sparse", "self-designing"])
    k = int(rng.choice([4, 8, 16, 32, 64, 128, 256]))
    while k > max_cols:
        k = int(rng.choice([4, 8, 16, 32, 64, 128, 256]))
    if kind == "mailman":
        n = max(2, int(k).bit_length() - 1)
        k = 1 << n
    else:
        n = int(rng.integers(2, min(k, 10) + 1))
    target = rng.standard_normal((n, k))
    codebook = sa.make_codebook(kind, n, k, seed=int(rng.integers(2 ** 62)),
                                target=target)
    n_stages = int(rng.integers(0, max_stages + 1))
    if n_stages == 0:
        return sa.DecompositionPlan(n, k, codebook, ()), target
    sparsity = [int(rng.integers(0, 3)) for _ in range(n_stages)]
    plan = sa.decompose(target, codebook, sa.StageSchedule.fixed(sparsity))
    return plan, target


def synthetic_plan(rng, max_cols=16, max_stages=4):
    """A structurally random plan (no fitting), for serialization tests."""
    k = int(rng.choice([4, 8, 16]))
    if rng.integers(2):
        n = k.bit_length() - 1
        codebook = sa.make_codebook("mailman", n, k)
    else:
        n = int(rng.integers(2, 5))
        codebook = sa.make_codebook("two-sparse", n, k)
    stages = []
    for _ in range(int(rng.integers(0, max_stages + 1))):
        cols = []
        for _ in range(k):
            nnz = int(rng.integers(0, 4))
            row_pick = sorted(rng.choice(k, size=min(nnz, k), replace=False))
            cols.append(tuple(
                (int(i), sa.SignedPow2(int(rng.choice([-1, 1])),
                                       int(rng.integers(-40, 41))))
                for i in row_pick))
        stages.append(pow2matrix(k, k, cols))
    return sa.DecompositionPlan(n, k, codebook, tuple(stages))


def wide_mantissa_plan():
    """A 2x4 mailman plan of ten equal stages holding ``2**60`` and
    ``2**-64`` in every column: its exact entries fit float64 but carry
    mantissas wider than 1024 bits."""
    cols = tuple(tuple(sorted([(k, sa.SignedPow2(1, 60)),
                               ((k + 1) % 4, sa.SignedPow2(1, -64))]))
                 for k in range(4))
    stage = pow2matrix(4, 4, cols)
    return sa.DecompositionPlan(2, 4, sa.make_codebook("mailman", 2, 4),
                                (stage,) * 10)


def exact_matvec(plan, x):
    """Reference ``reconstruct(plan) @ x`` in exact dyadic arithmetic."""
    cols = reconstruct_exact(plan)
    out = []
    for n in range(plan.n_rows):
        acc = sa.Dyadic(0)
        for k in range(plan.n_cols):
            m, e = cols[k][n]
            if m and x[k].mantissa:
                acc = acc + sa.Dyadic(m * x[k].mantissa, e + x[k].exponent)
        out.append(acc)
    return out


def fraction_reconstruction(plan):
    """``reconstruct(plan)`` as a dense Fraction chain product: the
    codebook's dense matrix times each stage's, as row lists."""
    dense = [[Fraction(float(v)) for v in row]
             for row in plan.codebook.dense()]
    for stage in plan.stages:
        sd = stage.dense()
        dense = [[sum(dense[i][j] * Fraction(float(sd[j, k]))
                      for j in range(stage.rows))
                  for k in range(stage.cols)] for i in range(len(dense))]
    return dense


def fraction_matvec(matrix, x):
    """Dense Fraction-arithmetic product of a float matrix and dyadics."""
    out = []
    for row in np.asarray(matrix, dtype=np.float64):
        acc = Fraction(0)
        for a, v in zip(row, x):
            acc += Fraction(float(a)) * v.to_fraction()
        out.append(acc)
    return out


def greedy_fit_oracle(t, cb, max_steps, stop_sq=None):
    """The greedy fit of one target column as a plain loop over steps:
    the reference the blocked kernel in ``wiring`` must equal.

    Each step scores every candidate and picks the smallest float score,
    the smallest index among equal scores.  Each correlation is the
    candidate's own dot product with the residual (``np.vecdot``), the
    call the kernel makes for every score it compares, so both round a
    score alike; scores that tie in exact arithmetic may round apart, and
    then the lower float score wins in both.  The residual stays in float.

    Returns ``(entries, residual_sq, trace)``: the column's entries, its
    final squared residual and its squared residual after each step.
    """
    cb_t = np.ascontiguousarray(np.asarray(cb, dtype=np.float64).T)
    norms = np.einsum("kn,kn->k", cb_t, cb_t)
    k_count = cb_t.shape[0]
    w = np.zeros(k_count)
    r = np.asarray(t, dtype=np.float64).copy()
    r_sq = float(r @ r)
    usable = norms > 0.0
    safe_norms = np.where(usable, norms, 1.0)
    trace = []
    for _ in range(max_steps):
        if stop_sq is not None and r_sq <= stop_sq:
            break
        if r_sq == 0.0:
            break
        u = np.vecdot(r, cb_t)
        coeff = (u + w * norms) / safe_norms
        m, e = np.frexp(np.abs(coeff))
        exp = np.clip(np.where(m >= 0.75, e, e - 1), EXP_MIN, EXP_MAX)
        v = np.where(coeff == 0.0, 0.0,
                     np.copysign(np.ldexp(np.ones(k_count), exp), coeff))
        delta = w - v
        score = r_sq + delta * (2.0 * u + delta * norms)
        score = np.where(usable, score, np.inf)
        j = int(np.argmin(score))
        if not score[j] < r_sq:
            break
        w[j] = v[j]
        r += delta[j] * cb_t[j]
        r_sq = float(r @ r)
        trace.append(r_sq)
    entries = []
    for j in np.flatnonzero(w):
        m, e = np.frexp(abs(w[j]))
        entries.append((int(j), sa.SignedPow2(1 if w[j] > 0 else -1,
                                              int(e) - 1)))
    return tuple(entries), r_sq, tuple(trace)


def dyadic_apply_oracle(plan, x):
    """``engine.apply`` as a loop over every stored entry in ``Dyadic``
    arithmetic: the reference the compiled engine must equal.

    Returns ``(outputs, (additions, shifts, sign_changes, per_stage))``.
    """
    ops = [0, 0, 0]  # additions, shifts, sign changes

    def apply_pow2(mat, vec):
        assert len(vec) == mat.cols
        out = [Dyadic(0)] * mat.rows
        for k, col in enumerate(columns(mat)):
            for i, c in col:
                out[i] = out[i] + vec[k].times_pow2(c.sign, c.exponent)
            ops[0] += max(0, len(col) - 1)
            ops[1] += len(col)
            ops[2] += sum(1 for _, c in col if c.sign < 0)
        return out

    h = list(x)
    per_stage = []
    for stage in reversed(plan.stages):
        before = ops[0]
        h = apply_pow2(stage, h)
        per_stage.append(ops[0] - before)
    per_stage.reverse()
    cb = plan.codebook
    if cb.kind == "mailman":
        y, adds = mailman_apply(cb.n_rows, h)
        ops[0] += adds
    else:
        for factor in reversed(cb.factors):
            h = apply_pow2(factor, h)
        y = h[:cb.n_rows]
    return y, (ops[0], ops[1], ops[2], tuple(per_stage))


def chain_rows_oracle(plan):
    """The codebook's rows as ``(ints, exponent)`` Python-int lists, pushed
    through the plan's matrix chain column by column: yields the start
    rows, then the rows after each matrix."""
    cb = plan.codebook
    if cb.factors:
        width = cb.factors[0].rows
        rows = [([0] * n + [1] + [0] * (width - n - 1), 0)
                for n in range(plan.n_rows)]
    else:
        rows = [align([Dyadic.from_float(v) for v in row])
                for row in cb.dense().tolist()]
    yield rows
    for mat in cb.factors + plan.stages:
        cols = columns(mat)
        shift = min((c.exponent for col in cols for _, c in col), default=0)
        terms = [[(i, c.sign << (c.exponent - shift)) for i, c in col]
                 for col in cols]
        rows = [([sum(r[i] * f for i, f in col) for col in terms], e + shift)
                for r, e in rows]
        yield rows


def reconstruct_exact_oracle(plan):
    """``reconstruct_exact`` as plain row lists (``chain_rows_oracle``): the
    reference for its ``(mantissa, exponent)`` pairs, not only their
    values."""
    *_, rows = chain_rows_oracle(plan)
    return [[(r[k], e) if r[k] else (0, 0) for r, e in rows]
            for k in range(plan.n_cols)]


def advance_effective_oracle(eff, stage):
    """``advance_effective`` as a loop over every stored entry."""
    out = np.zeros((eff.shape[0], stage.cols))
    for k, col in enumerate(columns(stage)):
        acc = out[:, k]
        for j, c in col:
            acc += math.ldexp(float(c.sign), c.exponent) * eff[:, j]
    return out


def same_bits(a, b):
    """Float arrays equal bit for bit, the sign of zero included."""
    return np.array_equal(a, b) and \
        np.array_equal(np.signbit(a), np.signbit(b))
