"""Shared test utilities: random plan/vector generators and exact oracles."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import shiftadd as sa
from shiftadd.plan import reconstruct_exact


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
                                target=target, aux="auto")
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
        stages.append(sa.Pow2Matrix(k, k, tuple(cols)))
    return sa.DecompositionPlan(n, k, codebook, tuple(stages))


def wide_mantissa_plan():
    """A 2x4 mailman plan of ten equal stages holding ``2**60`` and
    ``2**-64`` in every column: its exact entries fit float64 but carry
    mantissas wider than 1024 bits."""
    cols = tuple(tuple(sorted([(k, sa.SignedPow2(1, 60)),
                               ((k + 1) % 4, sa.SignedPow2(1, -64))]))
                 for k in range(4))
    stage = sa.Pow2Matrix(4, 4, cols)
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


def fraction_matvec(matrix, x):
    """Dense Fraction-arithmetic product of a float matrix and dyadics."""
    out = []
    for row in np.asarray(matrix, dtype=np.float64):
        acc = Fraction(0)
        for a, v in zip(row, x):
            acc += Fraction(float(a)) * v.to_fraction()
        out.append(acc)
    return out
