"""Scan-order permutations and the taped gather/scatter pair."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rng
from stripesr import tensor as T
from stripesr.errors import ContractViolation
from stripesr.scan import (
    ScanOrder,
    count_vertical_transitions,
    gather_tokens,
    make_order,
    scatter_tokens,
)
from stripesr.tensor import Tensor


class TestKnownPermutations:
    def test_raster_dir0_is_identity(self):
        np.testing.assert_array_equal(
            make_order("raster", 3, 4, 1, 0).perm, np.arange(12))

    def test_raster_dir1_is_reversal(self):
        np.testing.assert_array_equal(
            make_order("raster", 2, 3, 1, 1).perm, np.arange(6)[::-1])

    def test_raster_dir2_2x2_hand_enumeration(self):
        # column-major on a 2x2 grid: (0,0),(1,0),(0,1),(1,1)
        np.testing.assert_array_equal(
            make_order("raster", 2, 2, 1, 2).perm, [0, 2, 1, 3])

    def test_stripe_2x4_len2_dir0(self):
        # two stripes of width 2, row-major inside each
        np.testing.assert_array_equal(
            make_order("stripe", 2, 4, 2, 0).perm, [0, 1, 4, 5, 2, 3, 6, 7])

    def test_window_4x4_win2_dir0(self):
        np.testing.assert_array_equal(
            make_order("window", 4, 4, 2, 0).perm,
            [0, 1, 4, 5, 2, 3, 6, 7, 8, 9, 12, 13, 10, 11, 14, 15])

    def test_stripe_len1_is_column_major(self):
        got = make_order("stripe", 3, 2, 1, 0).perm
        np.testing.assert_array_equal(got, [0, 2, 4, 1, 3, 5])


class TestBijectionExhaustive:
    @pytest.mark.parametrize("kind", ["raster", "stripe", "window"])
    def test_all_small_grids(self, kind):
        for h in range(1, 9):
            for w in range(1, 9):
                for param in range(1, 9):
                    for direction in range(4):
                        o = make_order(kind, h, w, param, direction)
                        assert sorted(o.perm) == list(range(h * w))
                        np.testing.assert_array_equal(
                            o.inv[o.perm], np.arange(h * w))
                        np.testing.assert_array_equal(
                            o.perm[o.inv], np.arange(h * w))

    def test_stripe_full_width_equals_raster(self):
        # directions 2/3 traverse the transposed grid, whose width is h
        for h, w in ((1, 1), (3, 5), (4, 4), (8, 7)):
            for direction in range(4):
                full = w if direction in (0, 1) else h
                np.testing.assert_array_equal(
                    make_order("stripe", h, w, full, direction).perm,
                    make_order("raster", h, w, 1, direction).perm)

    def test_direction1_reverses_direction0(self):
        for kind in ("raster", "stripe", "window"):
            o0 = make_order(kind, 4, 6, 2, 0)
            o1 = make_order(kind, 4, 6, 2, 1)
            np.testing.assert_array_equal(o1.perm, o0.perm[::-1])


class TestVerticalTransitions:
    def test_raster_dir0_has_none(self):
        for h, w in ((2, 3), (4, 6), (8, 8)):
            o = make_order("raster", h, w, 1, 0)
            assert count_vertical_transitions(o) == 0

    def test_stripe_len1_all_vertical_within_stripes(self):
        o = make_order("stripe", 4, 3, 1, 0)
        # each width-1 stripe walks straight down: 3 transitions per stripe
        assert count_vertical_transitions(o) == 9

    def test_stripe_family_has_vertical_transitions(self):
        # the transposed directional variants traverse columns within
        # horizontal stripes, producing grid-vertical consecutive pairs
        for h in range(2, 9):
            for w in range(2, 9):
                for length in range(1, w):
                    counts = [
                        count_vertical_transitions(
                            make_order("stripe", h, w, length, d))
                        for d in range(4)
                    ]
                    assert sum(counts) >= 1, (h, w, length, counts)

    def test_transposed_raster_is_all_vertical(self):
        o = make_order("raster", 3, 2, 1, 2)
        # column-major: every within-column step is a vertical neighbor
        assert count_vertical_transitions(o) == 4


class TestValidation:
    def test_zero_dims_rejected(self):
        with pytest.raises(ContractViolation):
            make_order("raster", 0, 4, 1)

    def test_bad_direction(self):
        with pytest.raises(ContractViolation):
            make_order("raster", 2, 2, 1, 5)

    def test_bad_kind(self):
        with pytest.raises(ContractViolation):
            make_order("zigzag", 2, 2, 1)

    def test_nonpositive_param(self):
        with pytest.raises(ContractViolation):
            make_order("stripe", 4, 4, 0)

    @pytest.mark.parametrize("kind", ["raster", "window", "stripe"])
    def test_perm_and_inv_are_read_only(self, kind):
        # orders are cached and shared, so a caller must not be able to
        # change one in place
        o = make_order(kind, 4, 4, 2)
        with pytest.raises(ValueError):
            o.perm[0] = 1
        with pytest.raises(ValueError):
            o.inv[0] = 1


class TestGatherScatter:
    def test_roundtrip_identity(self):
        o = make_order("stripe", 4, 6, 2, 0)
        x = Tensor(rng(0).normal(size=(3, 4, 6)), dtype=np.float64)
        back = scatter_tokens(gather_tokens(x, [o]), [o])
        np.testing.assert_array_equal(back.data, x.data)

    def test_gather_layout(self):
        o = make_order("stripe", 2, 4, 2, 0)
        x = np.arange(8.0).reshape(1, 2, 4)
        seq = gather_tokens(Tensor(x, dtype=np.float64), [o]).data
        np.testing.assert_array_equal(seq[0, 0], [0, 1, 4, 5, 2, 3, 6, 7])

    def test_gather_grad_is_all_ones(self):
        o = make_order("window", 4, 4, 2, 0)
        tape = T.Tape()
        x = tape.leaf(rng(1).normal(size=(2, 4, 4)))
        tape.backward(T.reduce_mean(gather_tokens(x, [o])))
        # every entry gets the mean's gradient, 1/32, back unchanged
        np.testing.assert_array_equal(tape.grad(x), np.full((2, 4, 4), 1 / 32))

    def test_scatter_grad_check(self):
        o = make_order("stripe", 3, 4, 2, 1)
        x = rng(2).normal(size=(1, 2, 12))
        err = T.grad_check(
            lambda t: T.reduce_mean(T.sigmoid(scatter_tokens(t, [o]))), x)
        assert err < 1e-6

    def test_four_orders_are_adjoint(self):
        # <gather(x), s> == <x, scatter(s)>: each op's backward is the other
        orders = [make_order("stripe", 5, 7, 2, d) for d in range(4)]
        g = rng(3)
        x, s = g.normal(size=(3, 5, 7)), g.normal(size=(4, 3, 35))
        lhs = np.vdot(gather_tokens(Tensor(x, dtype=np.float64), orders).data, s)
        rhs = np.vdot(x, scatter_tokens(Tensor(s, dtype=np.float64), orders).data)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_shape_mismatch_rejected(self):
        o = make_order("raster", 3, 3, 1)
        with pytest.raises(ContractViolation):
            gather_tokens(Tensor(np.ones((2, 4, 4))), [o])
        with pytest.raises(ContractViolation):
            scatter_tokens(Tensor(np.ones((1, 2, 5))), [o])  # T != 3 * 3
        with pytest.raises(ContractViolation):
            scatter_tokens(Tensor(np.ones((2, 2, 9))), [o])  # K != 1 order
        with pytest.raises(ContractViolation):
            gather_tokens(Tensor(np.ones((2, 3, 3))), [])


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(["raster", "stripe", "window"]),
       st.integers(1, 12), st.integers(1, 12),
       st.integers(1, 12), st.integers(0, 3))
def test_bijection_hypothesis(kind, h, w, param, direction):
    o = make_order(kind, h, w, param, direction)
    assert isinstance(o, ScanOrder)
    assert np.array_equal(np.sort(o.perm), np.arange(h * w))
    assert np.array_equal(o.inv[o.perm], np.arange(h * w))
