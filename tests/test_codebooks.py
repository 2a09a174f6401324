"""Codebook construction and fast application."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import shiftadd as sa
from shiftadd import codebooks
from shiftadd.plan import reconstruct_exact
from shiftadd.pot import SignedPow2

from helpers import (columns, columns_collinear, cost_oracle,
                     dyadic_apply_oracle, fraction_reconstruction,
                     has_collinear_pair, mailman_matrix, random_dyadic_vector,
                     same_bits)


def _bare(cb):
    """The plan of ``cb`` alone, with no stages."""
    return sa.DecompositionPlan(cb.n_rows, cb.n_cols, cb, ())


class TestMailman:
    def test_small_columns(self):
        m1 = sa.make_codebook("mailman", 1, 2)
        assert m1.dense().tolist() == [[0.0, 1.0]]
        m2 = sa.make_codebook("mailman", 2, 4)
        assert m2.dense().T.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]
        # the unit wires 0 and 1 go to the wires 1 and 2 beside the empty
        # subset wire 0; then column 3 is wire 1 plus wire 2, and wires 1
        # and 2 pass through
        one = SignedPow2(1, 0)
        factors = sa.mailman_factors(2)
        assert [(f.rows, f.cols) for f in factors] == [(2, 3), (3, 4)]
        assert [columns(f) for f in factors] == [
            ((), ((0, one),), ((1, one),)),
            ((), ((1, one),), ((2, one),), ((1, one), (2, one)))]

    def test_bit_extraction(self):
        # column 6 spells 110b with the LSB in the first row
        m3 = sa.make_codebook("mailman", 3, 8)
        assert m3.dense()[:, 6].tolist() == [0.0, 1.0, 1.0]

    def test_dense_matches_build(self):
        # the factors multiply out to the bit matrix exactly, in floats
        # and in the exact reconstruction
        for n in range(1, 11):
            bits = mailman_matrix(n).dense()
            cb = sa.make_codebook("mailman", n, 1 << n)
            assert same_bits(cb.dense(), bits)
            assert same_bits(sa.reconstruct(_bare(cb)), bits)

    def test_apply_base_case(self):
        y, cost = sa.apply(_bare(sa.make_codebook("mailman", 1, 2)),
                           [sa.Dyadic(3), sa.Dyadic(5)])
        assert cost.additions == 0 and y == [sa.Dyadic(5)]

    def test_addition_counts(self):
        # one addition per column beyond the units: each is an earlier
        # column plus one unit wire, as x^T M builds every subset sum
        for n in range(1, 13):
            k = 1 << n
            c = sa.cost_of(_bare(sa.make_codebook("mailman", n, k)))
            assert c.additions == k - n - 1 < k
            assert c.additions == sum(f.op_counts()[0]
                                      for f in sa.mailman_factors(n))

    def test_apply_matches_dense_product(self):
        rng = np.random.default_rng(200)
        for n in range(1, 8):
            k = 1 << n
            dense = mailman_matrix(n).dense().astype(int).astype(object)
            plan = _bare(sa.make_codebook("mailman", n, k))
            for _ in range(5):
                h = random_dyadic_vector(rng, k)
                y, cost = sa.apply(plan, h)
                assert cost.additions == k - n - 1
                hf = np.array([v.to_fraction() for v in h], dtype=object)
                assert [v.to_fraction() for v in y] == list(dense @ hf)

    def test_factors_hold_few_entries(self):
        # about three entries per column, against N / 2 in the bit matrix;
        # factor t writes only the 2**(t+1) subset wires and the higher
        # units, so the columns too sum to about 2 * K, not N * K
        for n in range(1, 17):
            factors = sa.mailman_factors(n)
            k = 1 << n
            assert len(factors) == n
            assert [(f.rows, f.cols) for f in factors] == [
                ((1 << t) + n - t - (t == 0), (2 << t) + n - t - 1)
                for t in range(n)]
            assert all(not f.negative.any() and not f.exp.any()
                       for f in factors)
            assert sum(f.nnz for f in factors) <= 3 * k + n * n
            assert sum(f.cols for f in factors) <= 2 * k + n * n

    def test_errors(self):
        with pytest.raises(ValueError):
            sa.mailman_factors(0)
        with pytest.raises(ValueError):
            sa.mailman_factors(25)
        with pytest.raises(sa.DimensionError):
            sa.apply(_bare(sa.make_codebook("mailman", 2, 4)),
                     [sa.Dyadic(1)] * 3)


class TestTwoSparse:
    def test_unit_columns_first(self):
        m = sa.two_sparse_build(2, 2)
        assert m.dense().T.tolist() == [[1, 0], [0, 1]]

    def test_n2_k4(self):
        m = sa.two_sparse_build(2, 4)
        assert m.dense().T.tolist() == [[1, 0], [0, 1], [1, 1], [1, -1]]

    def test_magnitude_growth(self):
        # N=2 exhausts level 0 at K=4; K=8 needs level-1 ratios
        m = sa.two_sparse_build(2, 8)
        assert m.dense().T.tolist()[4:] == [[1, 2], [1, -2], [2, 1], [2, -1]]

    def test_no_collinear_pairs(self):
        for n, k in [(2, 4), (2, 16), (3, 30), (4, 50), (8, 256)]:
            m = sa.two_sparse_build(n, k)
            assert m.cols == k
            assert not has_collinear_pair(m)
            assert all(1 <= len(col) <= 2 for col in columns(m))

    def test_exhaustion_error(self):
        with pytest.raises(ValueError):
            sa.two_sparse_build(1, 2)
        with mock.patch.object(codebooks, "TWO_SPARSE_MAX_LEVEL", 1), \
                pytest.raises(ValueError, match="magnitude level 1"):
            sa.two_sparse_build(2, 100)

    def test_collinearity_oracle(self):
        one = SignedPow2(1, 0)
        two = SignedPow2(1, 1)
        neg = SignedPow2(-1, 1)
        # (1, 2) is collinear with (-2, -4): same direction, scaled by -2
        a = ((0, one), (1, two))
        b = ((0, SignedPow2(-1, 1)), (1, SignedPow2(-1, 2)))
        assert columns_collinear(a, b)
        # (1, 2) vs (2, 1): not collinear
        assert not columns_collinear(a, ((0, two), (1, one)))
        # orthogonal non-overlapping supports: not collinear
        assert not columns_collinear(((0, one),), ((1, neg),))


class TestSelfDesigning:
    def test_unit_columns_reproduced_exactly(self):
        rng = np.random.default_rng(201)
        aux = np.hstack([np.eye(3), rng.standard_normal((3, 5))])
        cb = sa.self_design_build(aux, stage_sparsity=1)
        b1 = cb.factors[0]
        for k in range(3):
            assert columns(b1)[k] == ((k, SignedPow2(1, 0)),)

    def test_cost_at_most_2k(self):
        rng = np.random.default_rng(202)
        aux = rng.standard_normal((8, 256))
        cb = sa.self_design_build(aux, stage_sparsity=1)
        cost = sa.cost_of(sa.DecompositionPlan(8, 256, cb, ()))
        assert cost.additions <= 2 * 256
        assert cb.dense().shape == (8, 256)

    def test_requires_wide_matrix(self):
        with pytest.raises(sa.DimensionError):
            sa.self_design_build(np.zeros((4, 3)))


class TestGaussian:
    def test_deterministic(self):
        a = sa.gaussian_build(6, 40, seed=7)
        b = sa.gaussian_build(6, 40, seed=7)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sa.gaussian_build(6, 40, seed=8))

    def test_moments(self):
        a = sa.gaussian_build(100, 200, seed=9)
        nk = a.size
        assert abs(a.mean()) <= 4 / np.sqrt(nk)
        assert abs(a.var() - 1.0) <= 0.05


class TestDescriptor:
    def test_mailman_shape_checked(self):
        with pytest.raises(sa.DimensionError):
            sa.CodebookDescriptor("mailman", 3, 9)

    def test_round_trips(self):
        rng = np.random.default_rng(203)
        target = rng.standard_normal((3, 8))
        for kind in ("mailman", "two-sparse", "self-designing"):
            cb = sa.make_codebook(kind, 3, 8, seed=5, target=target)
            back = sa.CodebookDescriptor.from_dict(cb.to_dict())
            assert back == cb
            assert np.array_equal(back.dense(), cb.dense())

    def test_gaussian_is_no_codebook_kind(self):
        # the Gaussian matrix serves the analysis and auxiliary targets only
        with pytest.raises(ValueError, match="unknown codebook kind"):
            sa.make_codebook("gaussian", 4, 32, seed=1)
        with pytest.raises(ValueError, match="unknown codebook kind"):
            sa.CodebookDescriptor("gaussian", 4, 32)

    @pytest.mark.parametrize("kind", ["mailman", "two-sparse",
                                      "self-designing"])
    def test_unknown_aux_refused_for_every_kind(self, kind):
        # a mailman or two-sparse codebook reads no aux, but a bad one is
        # still the caller's mistake
        with pytest.raises(ValueError, match="unknown aux choice 'bogus'"):
            sa.make_codebook(kind, 3, 8, aux="bogus")
        with pytest.raises(ValueError, match="requires a target"):
            sa.make_codebook("self-designing", 3, 8)

    def test_mailman_cost(self):
        # 2**3 - 3 - 1 additions; one shift per stored entry of the factors
        cost = sa.cost_of(_bare(sa.make_codebook("mailman", 3, 8)))
        assert (cost.additions, cost.shifts,
                cost.sign_changes) == (4, 18, 0)

    def test_shape_kinds_refuse_factors_and_stage_sparsity(self):
        # the file records only the shape of a mailman or two-sparse
        # codebook, so anything more would not survive a round trip
        enum = sa.two_sparse_build(3, 8)
        flipped = sa.Pow2Matrix(3, 8, enum.row, ~enum.negative, enum.exp,
                                enum.col_len)
        for kind in ("mailman", "two-sparse"):
            for factors in ((enum,), (flipped,), (enum, enum)):
                with pytest.raises(ValueError, match="takes no factors"):
                    sa.CodebookDescriptor(kind, 3, 8, factors=factors)
            for s in (0, 2, 3):
                with pytest.raises(ValueError, match="takes no stage_spars"):
                    sa.CodebookDescriptor(kind, 3, 8, stage_sparsity=s)
        # the two-sparse factor is derived from the shape
        assert sa.CodebookDescriptor("two-sparse", 3, 8).factors == (enum,)
        assert sa.CodebookDescriptor("mailman", 3, 8).factors == ()
        for kind in ("mailman", "two-sparse"):
            cb = sa.CodebookDescriptor(kind, 3, 8)
            assert sa.CodebookDescriptor.from_dict(
                {**cb.to_dict(), "factors": []}) == cb

    def test_every_kind_is_a_chain_from_the_input_wires(self):
        # every chain leads from the N input wires to the K columns, and
        # exact reconstruction, the engine and every count read that chain
        rng = np.random.default_rng(229)
        shapes = [(n, int(rng.integers(n, 25)))
                  for n in rng.integers(1, 7, size=4).tolist()]
        codebooks = [sa.make_codebook("mailman", n, 1 << n)
                     for n in range(1, 11)]
        for n, k in shapes + [(1, 1), (4, 4)]:
            codebooks += [sa.make_codebook("two-sparse", n, k),
                          sa.make_codebook("self-designing", n, k,
                                           seed=int(rng.integers(2 ** 62)),
                                           aux="gaussian")]
        for cb in codebooks:
            if cb.kind == "mailman":
                assert cb.factors == ()
                assert cb.chain == sa.mailman_factors(cb.n_rows)
                assert cb.chain is cb.chain  # derived once, then kept
            else:
                assert cb.chain == cb.factors
            assert [f.rows for f in cb.chain] + [cb.n_cols] == \
                [cb.n_rows] + [f.cols for f in cb.chain]
            plan = _bare(cb)
            assert [[Fraction(m) * Fraction(2) ** e for m, e in col]
                    for col in reconstruct_exact(plan)] == \
                [list(col) for col in zip(*fraction_reconstruction(plan))]
            x = random_dyadic_vector(rng, cb.n_cols)
            y, cost = sa.apply(plan, x)
            y_ref, counts = dyadic_apply_oracle(plan, x)
            ref = sa.cost_of(plan)
            assert y == y_ref
            assert (cost.additions, cost.shifts, cost.sign_changes,
                    cost.per_stage) == counts == cost_oracle(plan) == (
                ref.additions, ref.shifts, ref.sign_changes, ref.per_stage)

    def test_factors_must_lead_from_the_input_wires(self):
        # the first factor reads the N input wires, each factor's columns
        # are the next one's rows, and the last writes the K columns
        b1, b2 = sa.make_codebook("self-designing", 3, 8, seed=1,
                                  aux="gaussian").factors
        wide = sa.Pow2Matrix(8, 8, b1.row, b1.negative, b1.exp, b1.col_len)
        for factors in ((wide, b2), (b2, b1), (b1, b1)):
            with pytest.raises(sa.DimensionError, match="do not lead from"):
                sa.CodebookDescriptor("self-designing", 3, 8,
                                      factors=factors)


def _round_trip(cb):
    """``cb`` serialized inside a plan and loaded back."""
    plan = sa.DecompositionPlan(cb.n_rows, cb.n_cols, cb, ())
    return sa.deserialize(sa.serialize(plan)).codebook


class TestDescriptorRoundTrip:
    """Every descriptor that constructs loads back equal from a plan."""

    @pytest.mark.parametrize("kind, n, k", [
        ("mailman", 1, 2), ("mailman", 3, 8), ("two-sparse", 1, 1),
        ("two-sparse", 3, 8), ("two-sparse", 5, 30)])
    @pytest.mark.parametrize("stage_sparsity", [0, 1, 2, 3])
    @pytest.mark.parametrize("given", [False, True])
    def test_shape_kinds(self, kind, n, k, stage_sparsity, given):
        # a two-sparse stage sparsity of 3 once loaded back as 1, and a
        # mailman factor once made reconstruction multiply the wrong matrix
        # and was dropped on saving: both are refused now
        # given: the factor a two-sparse codebook derives, or a KxK identity
        factors = (sa.two_sparse_build(*((n, k) if kind == "two-sparse"
                                         else (k, k))),) if given else ()
        try:
            cb = sa.CodebookDescriptor(kind, n, k, stage_sparsity, factors)
        except ValueError:
            assert given or stage_sparsity != 1
            return
        assert not given and stage_sparsity == 1
        back = _round_trip(cb)
        assert back == cb and same_bits(back.dense(), cb.dense())

    @pytest.mark.parametrize("stage_sparsity", [0, 1, 2, 3])
    def test_self_designing(self, stage_sparsity):
        rng = np.random.default_rng(204)
        for n, k in ((1, 4), (3, 8), (4, 4)):
            design = sa.self_design_build(rng.standard_normal((n, k)), 1)
            cb = sa.CodebookDescriptor("self-designing", n, k,
                                       stage_sparsity, design.factors)
            back = _round_trip(cb)
            assert back == cb and same_bits(back.dense(), cb.dense())
