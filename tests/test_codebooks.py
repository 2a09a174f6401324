"""Codebook construction and fast application."""

from unittest import mock

import numpy as np
import pytest

import shiftadd as sa
from shiftadd import codebooks
from shiftadd.pot import SignedPow2

from helpers import (columns, columns_collinear, exact_matvec,
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
        # unit wires 0 and 1 go to columns 1 and 2; then column 3 is
        # column 1 plus column 2, and columns 1 and 2 pass through
        one = SignedPow2(1, 0)
        assert [columns(f) for f in sa.mailman_factors(2)] == [
            ((), ((0, one),), ((1, one),), ()),
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
        # about three entries per column, against N / 2 in the bit matrix
        for n in range(1, 17):
            factors = sa.mailman_factors(n)
            k = 1 << n
            assert len(factors) == n
            assert all((f.rows, f.cols) == (k, k) and not f.negative.any()
                       and not f.exp.any() for f in factors)
            assert sum(f.nnz for f in factors) <= 3 * k + n * n

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

    def test_every_kind_is_a_chain_behind_the_selector(self):
        mm = sa.make_codebook("mailman", 3, 8)
        assert mm.factors == () and mm.chain == sa.mailman_factors(3)
        assert mm.chain is mm.chain  # derived once, then kept
        x = [sa.Dyadic(3, 2), sa.Dyadic(0), sa.Dyadic(5), sa.Dyadic(1),
             sa.Dyadic(0), sa.Dyadic(-1, -3), sa.Dyadic(0), sa.Dyadic(7, 1)]
        for cb in (mm, sa.make_codebook("two-sparse", 3, 8),
                   sa.make_codebook("self-designing", 3, 8, seed=1,
                                    aux="gaussian")):
            if cb.kind != "mailman":
                assert cb.chain == cb.factors
            # the engine ends every chain in the [I 0] selector: the first
            # n_rows wires, each at its own point
            assert sa.apply(_bare(cb), x)[0] == exact_matvec(_bare(cb), x)


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
