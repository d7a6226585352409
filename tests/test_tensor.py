"""Tape, elementwise ops, matmul, reductions and shape ops."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matmul_oracle, rel_err, rng
from stripesr import ops, tensor as T
from stripesr.errors import ContractViolation, NumericError
from stripesr.ops import ConvSpec
from stripesr.tensor import Tape, Tensor


class TestTensorBasics:
    def test_default_dtype_float32(self):
        assert Tensor([1.0, 2.0]).dtype == np.float32

    def test_explicit_dtype(self):
        assert Tensor([1.0], dtype=np.float64).dtype == np.float64

    def test_zero_dim_preserved(self):
        t = Tensor(np.float32(3.0))
        assert t.shape == ()
        assert t.item() == 3.0

    def test_item_rejects_non_scalar(self):
        with pytest.raises(ContractViolation):
            Tensor([1.0, 2.0]).item()


class TestTapeBackward:
    def test_leaf_grad_identity(self):
        tape = Tape()
        x = tape.leaf(np.array([1.0, 2.0, 3.0]))
        tape.backward(T.reduce_sum(x))
        np.testing.assert_array_equal(tape.grad(x), np.ones(3))

    def test_chain_rule_two_ops(self):
        # d/dx sum((2x)^2) = 8x
        tape = Tape()
        x = tape.leaf(np.array([1.0, -2.0], dtype=np.float64))
        y = T.scale(x, 2.0)
        tape.backward(T.reduce_sum(T.mul(y, y)))
        np.testing.assert_allclose(tape.grad(x), 8.0 * x.data)

    def test_grad_accumulates_over_fanout(self):
        tape = Tape()
        x = tape.leaf(np.array([3.0]))
        tape.backward(T.reduce_sum(T.add(x, x)))
        np.testing.assert_array_equal(tape.grad(x), [2.0])

    def test_backward_requires_scalar(self):
        tape = Tape()
        x = tape.leaf(np.ones(4))
        with pytest.raises(ContractViolation):
            tape.backward(x)

    def test_grad_of_unused_leaf_is_zero(self):
        tape = Tape()
        x = tape.leaf(np.ones(3))
        y = tape.leaf(np.ones(2))
        tape.backward(T.reduce_sum(x))
        np.testing.assert_array_equal(tape.grad(y), np.zeros(2))

    def test_none_and_off_tape_inputs_get_no_parent(self):
        # conv2d over an off-tape input and no bias: both get parent id None,
        # and the weight gradient equals the one with the input on the tape
        g = rng(20)
        x, w = g.normal(size=(2, 5, 5)), g.normal(size=(3, 2, 3, 3))

        def weight_grad(tape, xt):
            wt = tape.leaf(w)
            out = ops.conv2d(xt, wt, None, ConvSpec())
            tape.backward(T.reduce_sum(T.sigmoid(out)))
            return tape.nodes[out.node_id].parent_ids, wt.node_id, tape.grad(wt)

        tape = Tape()
        pids, wid, gw = weight_grad(tape, Tensor(x, dtype=np.float64))
        assert pids == (None, wid, None)
        assert None not in tape.grads
        ref = Tape()
        ref_pids, ref_wid, ref_gw = weight_grad(ref, ref.leaf(x))
        assert ref_pids == (0, ref_wid, None)
        np.testing.assert_array_equal(gw, ref_gw)

    def test_mixed_tape_rejected(self):
        a = Tape().leaf(np.ones(2))
        b = Tape().leaf(np.ones(2))
        with pytest.raises(ContractViolation):
            T.add(a, b)


class TestElementwise:
    def test_add_broadcast_and_grad(self):
        tape = Tape()
        a = tape.leaf(rng(0).normal(size=(3, 4)))
        b = tape.leaf(rng(1).normal(size=(4,)))
        out = T.add(a, b)
        np.testing.assert_allclose(out.data, a.data + b.data)
        tape.backward(T.reduce_sum(out))
        np.testing.assert_array_equal(tape.grad(a), np.ones((3, 4)))
        # broadcast grad folds back onto the smaller operand
        np.testing.assert_array_equal(tape.grad(b), np.full(4, 3.0))

    def test_div_value(self):
        a = Tensor([6.0, 9.0])
        b = Tensor([2.0, 3.0])
        np.testing.assert_allclose(T.div(a, b).data, [3.0, 3.0])

    def test_softplus_zero_is_ln2(self):
        assert abs(T.softplus(Tensor([0.0], dtype=np.float64)).data[0]
                   - math.log(2.0)) < 1e-12

    def test_softplus_stable_at_large_args(self):
        out = T.softplus(Tensor([800.0, -800.0], dtype=np.float64)).data
        assert out[0] == pytest.approx(800.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)
        assert np.isfinite(out).all()

    def test_sigmoid_stable_at_large_args(self):
        out = T.sigmoid(Tensor([800.0, -800.0], dtype=np.float64)).data
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    def test_silu_matches_definition(self):
        x = rng(2).normal(size=16)
        got = T.silu(Tensor(x, dtype=np.float64)).data
        np.testing.assert_allclose(got, x / (1.0 + np.exp(-x)), rtol=1e-12)

    def test_relu(self):
        got = T.relu(Tensor([-1.0, 0.0, 2.0])).data
        np.testing.assert_array_equal(got, [0.0, 0.0, 2.0])

    @pytest.mark.parametrize("op", [T.exp, T.sigmoid, T.silu, T.softplus],
                             ids=lambda op: op.__name__)
    def test_unary_grad_check(self, op):
        x = rng(3).normal(size=(2, 5))
        err = T.grad_check(lambda t: T.reduce_sum(op(t)), x)
        assert err < 1e-6

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul, T.div],
                             ids=lambda op: op.__name__)
    def test_binary_grad_check(self, op):
        other = rng(4).normal(size=(3, 4)) + 2.0  # keep away from 0 for div
        x = rng(5).normal(size=(3, 4))
        err = T.grad_check(
            lambda t: T.reduce_sum(
                T.sigmoid(op(t, Tensor(other, dtype=np.float64)))),
            x)
        assert err < 1e-6


class TestMatmul:
    def test_matches_triple_loop_oracle(self):
        a = rng(6).normal(size=(5, 7))
        b = rng(7).normal(size=(7, 3))
        got = T.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
        assert rel_err(got.data, matmul_oracle(a, b)) < 1e-6

    def test_grad_check_both_sides(self):
        a = rng(8).normal(size=(3, 4))
        b = rng(9).normal(size=(4, 2))
        err_a = T.grad_check(
            lambda t: T.reduce_sum(T.sigmoid(
                T.matmul(t, Tensor(b, dtype=np.float64)))), a)
        err_b = T.grad_check(
            lambda t: T.reduce_sum(T.sigmoid(
                T.matmul(Tensor(a, dtype=np.float64), t))), b)
        assert err_a < 1e-6 and err_b < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


class TestReductions:
    def test_sum_axis0_hand_enumeration(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(T.reduce_sum(x, axes=0).data, [4.0, 6.0])

    def test_mean_all(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert T.reduce_mean(x).item() == 2.5

    def test_sum_grad_broadcasts_back(self):
        x = rng(10).normal(size=(2, 3, 4))
        err = T.grad_check(
            lambda t: T.reduce_sum(T.sigmoid(T.reduce_sum(t, axes=(0, 2)))), x)
        assert err < 1e-6

    def test_mean_grad(self):
        x = rng(11).normal(size=(3, 5))
        err = T.grad_check(
            lambda t: T.reduce_sum(T.sigmoid(T.reduce_mean(t, axes=1))), x)
        assert err < 1e-6


class TestShapeOps:
    def test_reshape_roundtrip_grad(self):
        x = rng(12).normal(size=(2, 6))
        err = T.grad_check(
            lambda t: T.reduce_sum(T.sigmoid(T.reshape(t, (3, 4)))), x)
        assert err < 1e-6

    def test_concat_values_and_grad(self):
        a = rng(13).normal(size=(2, 3))
        b = rng(14).normal(size=(4, 3))
        got = T.concat([Tensor(a, dtype=np.float64),
                        Tensor(b, dtype=np.float64)], axis=0)
        np.testing.assert_array_equal(got.data, np.concatenate([a, b], axis=0))
        err = T.grad_check(
            lambda t: T.reduce_sum(T.sigmoid(
                T.concat([t, Tensor(b, dtype=np.float64)], axis=0))), a)
        assert err < 1e-6

    def test_narrow_values_and_grad(self):
        x = rng(15).normal(size=(6, 4))
        got = T.narrow(Tensor(x, dtype=np.float64), 0, 2, 3)
        np.testing.assert_array_equal(got.data, x[2:5])
        err = T.grad_check(
            lambda t: T.reduce_sum(T.sigmoid(T.narrow(t, 1, 1, 2))), x)
        assert err < 1e-6

    def test_narrow_out_of_bounds(self):
        with pytest.raises(ContractViolation):
            T.narrow(Tensor(np.ones((3, 3))), 0, 2, 5)

    def test_stack_values_and_grad(self):
        a = rng(16).normal(size=(2, 3))
        b = rng(17).normal(size=(2, 3))
        got = T.stack([Tensor(a, dtype=np.float64),
                       Tensor(b, dtype=np.float64)], axis=0)
        np.testing.assert_array_equal(got.data, np.stack([a, b], axis=0))
        err = T.grad_check(
            lambda t: T.reduce_sum(T.sigmoid(
                T.stack([t, Tensor(b, dtype=np.float64)], axis=0))), a)
        assert err < 1e-6


class TestGradCheckHarness:
    def test_sigmoid_sum_tight(self):
        x = rng(18).normal(size=(4, 4))
        assert T.grad_check(lambda t: T.reduce_sum(T.sigmoid(t)), x) < 1e-6

    def test_flags_a_wrong_gradient(self):
        # an op with a deliberately broken backward must fail the check
        def bad(t):
            def dfn(g):
                return 0.5 * g  # wrong: claims d/dx x = 0.5
            out = T._record_unary(t, t.data.copy(), dfn)
            return T.reduce_sum(out)
        assert T.grad_check(bad, rng(19).normal(size=(3,))) > 1e-2


class TestDebugNanChecks:
    def test_div_by_zero_always_raises(self):
        with pytest.raises(NumericError):
            T.div(Tensor([1.0]), Tensor([0.0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_detected_when_enabled(self):
        T.set_debug_nan_checks(True)
        try:
            tape = Tape()
            x = tape.leaf(np.array([1000.0], dtype=np.float64))
            with pytest.raises(NumericError):
                T.exp(x)  # overflows to inf, which the check rejects
        finally:
            T.set_debug_nan_checks(False)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_disabled_by_default(self):
        tape = Tape()
        x = tape.leaf(np.array([1000.0], dtype=np.float64))
        assert np.isinf(T.exp(x).data).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 10_000))
def test_matmul_matches_oracle_hypothesis(m, k, n, seed):
    a = np.random.default_rng(seed).normal(size=(m, k))
    b = np.random.default_rng(seed + 1).normal(size=(k, n))
    got = T.matmul(Tensor(a, dtype=np.float64), Tensor(b, dtype=np.float64))
    assert rel_err(got.data, matmul_oracle(a, b)) < 1e-6
