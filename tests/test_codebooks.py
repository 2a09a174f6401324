"""Codebook construction and fast application."""

from unittest import mock

import numpy as np
import pytest

import shiftadd as sa
from shiftadd import codebooks
from shiftadd.pot import SignedPow2
from shiftadd.pow2matrix import UNWRITTEN

from helpers import (columns, columns_collinear, has_collinear_pair,
                     random_dyadic_vector, same_bits)


class TestMailman:
    def test_small_columns(self):
        m1 = sa.mailman_build(1)
        assert m1.dense().tolist() == [[0.0, 1.0]]
        m2 = sa.mailman_build(2)
        assert m2.dense().T.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]

    def test_bit_extraction(self):
        # column k = 7 spells 6 = 110b with the LSB in the first row
        m3 = sa.mailman_build(3)
        assert m3.dense()[:, 6].tolist() == [0.0, 1.0, 1.0]

    def test_dense_matches_build(self):
        for n in range(1, 7):
            k = np.arange(1 << n)
            bits = (k[None, :] >> np.arange(n)[:, None]) & 1
            assert np.array_equal(bits, sa.mailman_build(n).dense())
            assert np.array_equal(bits, sa.make_codebook("mailman", n,
                                                         1 << n).dense())

    def test_apply_base_case(self):
        y, adds = sa.mailman_apply(1, [sa.Dyadic(3), sa.Dyadic(5)])
        assert adds == 0 and y == [sa.Dyadic(5)]

    def test_addition_counts(self):
        assert sa.mailman_additions(1) == 0
        assert sa.mailman_additions(2) == 3
        assert sa.mailman_additions(3) == 10
        for n in range(1, 12):
            c = sa.mailman_additions(n)
            assert c < 2 * (1 << n)
            if n > 1:
                assert c == sa.mailman_additions(n - 1) + (1 << n) - 1

    def test_apply_matches_dense_product(self):
        rng = np.random.default_rng(200)
        for n in range(1, 8):
            dense = sa.mailman_build(n).dense()
            for _ in range(5):
                h = random_dyadic_vector(rng, 1 << n)
                y, adds = sa.mailman_apply(n, h)
                assert adds == sa.mailman_additions(n)
                hf = np.array([v.to_fraction() for v in h], dtype=object)
                ref = dense.astype(int).astype(object) @ hf
                assert [v.to_fraction() for v in y] == list(ref)

    def test_errors(self):
        with pytest.raises(ValueError):
            sa.mailman_build(0)
        with pytest.raises(ValueError):
            sa.mailman_build(25)
        with pytest.raises(sa.DimensionError):
            sa.mailman_apply(2, [sa.Dyadic(1)] * 3)


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
        cb = sa.make_codebook("mailman", 3, 8)
        cost = sa.cost_of(sa.DecompositionPlan(3, 8, cb, ()))
        assert (cost.additions, cost.shifts,
                cost.sign_changes) == (10, 0, 0)

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

    def test_lead_and_terminal(self):
        mm = sa.make_codebook("mailman", 3, 8)
        assert mm.lead == (sa.mailman_build(3),)
        for kind in ("two-sparse", "self-designing"):
            cb = sa.make_codebook(kind, 3, 8, seed=1, aux="gaussian")
            assert cb.lead == ()
        # wires at points 2, unwritten, 0, ...: mailman aligns them to 0
        h = np.array([3, 0, 5, 1, 0, 0, 0, 7], dtype=object)
        point = np.array([2, UNWRITTEN, 0, 0, 0, 0, 0, 1])
        y, points, adds = mm.terminal(h, point)
        dense = sa.mailman_build(3).dense().astype(int).astype(object)
        aligned = np.array([12, 0, 5, 1, 0, 0, 0, 14], dtype=object)
        assert y == list(dense @ aligned) and points == [0, 0, 0]
        assert adds == sa.mailman_additions(3)
        y, points, adds = sa.make_codebook("two-sparse", 3, 8).terminal(
            h, point)
        assert (y, points, adds) == ([3, 0, 5], [2, UNWRITTEN, 0], 0)


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
