"""Conv2d, layernorm, channel attention, bicubic resize, AdamW, L1."""

import tracemalloc

import numpy as np
import pytest

from conftest import conv2d_oracle, rel_err, rng
from stripesr import ops, tensor as T
from stripesr.errors import ContractViolation
from stripesr.ops import OptState
from stripesr.tensor import Tensor


def _t64(a):
    return Tensor(np.asarray(a), dtype=np.float64)


# pads of 0..8 on sides of 1..6 samples: up to four reflections per side
PAD_GRID = [(n, lo, hi) for n in range(1, 7) for lo in range(9) for hi in range(9)]


class TestReflectIndex:
    def test_matches_np_pad(self):
        for n, lo, hi in PAD_GRID:
            idx = ops._reflect_index(n, lo, hi)
            ref = np.pad(np.arange(n), (lo, hi), mode="reflect")
            np.testing.assert_array_equal(idx, ref)

    def test_pad_matches_np_pad(self):
        # rows padded (lo, hi) and columns (hi, lo) on (3, n, n + 1) arrays
        for n, lo, hi in PAD_GRID:
            x = rng(n).normal(size=(3, n, n + 1)).astype(np.float32)
            xp, _ = ops.reflect_pad(x, lo, hi, hi, lo)
            ref = np.pad(x, ((0, 0), (lo, hi), (hi, lo)), mode="reflect")
            np.testing.assert_array_equal(xp, ref, err_msg=str((n, lo, hi)))
            assert xp.dtype == np.float32 and xp.flags["C_CONTIGUOUS"]

    def test_fold_is_adjoint_of_pad(self):
        # <reflect_pad(x), g> == <x, fold(g)>, rows and columns padded
        # differently
        g = rng(5)
        for n, lo, hi in PAD_GRID:
            x = g.normal(size=(2, n, 7 - n))
            xp, fold = ops.reflect_pad(x, lo, hi, hi // 2, lo + 1)
            gy = g.normal(size=xp.shape)
            gx = fold(gy)
            assert gx.shape == x.shape
            lhs, rhs = np.vdot(xp, gy), np.vdot(x, gx)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs)), (n, lo, hi)


CONV_CASES = [
    (2, 3, (3, 3), 1, 1),
    (4, 4, (3, 3), 1, 4),  # depthwise
    (4, 2, (1, 1), 1, 2),  # grouped pointwise
    (2, 2, (3, 3), 2, 1),  # dilated
    (2, 2, (5, 5), 1, 1),
    (6, 4, (5, 5), 1, 2),  # grouped, 1 < g < C
]


def _conv_inputs(c_in, c_out, kernel, dilation, groups, hw=(7, 8)):
    g = rng(hash((c_in, c_out, kernel, dilation, groups)) % 2**31)
    x = g.normal(size=(c_in, *hw))
    w = g.normal(size=(c_out, c_in // groups, *kernel))
    b = g.normal(size=c_out)
    return x, w, b


class TestConv2d:
    @pytest.mark.parametrize("c_in,c_out,kernel,dilation,groups", CONV_CASES)
    def test_matches_six_loop_oracle(self, c_in, c_out, kernel, dilation, groups):
        x, w, b = _conv_inputs(c_in, c_out, kernel, dilation, groups)
        got = ops.conv2d(_t64(x), _t64(w), _t64(b), dilation)
        want = conv2d_oracle(x, w, b, kernel, dilation=dilation, groups=groups)
        assert rel_err(got.data, want) < 1e-6

    @pytest.mark.parametrize("c_in,c_out,kernel,dilation,groups", CONV_CASES)
    def test_float32_matches_oracle(self, c_in, c_out, kernel, dilation, groups):
        # float32 is the production dtype; the error is taken relative to
        # the largest output, since single outputs may cancel to near zero
        x, w, b = _conv_inputs(c_in, c_out, kernel, dilation, groups)
        x, w, b = (a.astype(np.float32) for a in (x, w, b))
        got = ops.conv2d(Tensor(x), Tensor(w), Tensor(b), dilation)
        assert got.data.dtype == np.float32
        want = conv2d_oracle(x, w, b, kernel, dilation=dilation, groups=groups)
        assert rel_err(got.data, want, floor=np.abs(want).max()) < 1e-5

    @pytest.mark.parametrize("kernel,dilation", [((5, 5), 1), ((3, 3), 2)])
    def test_image_smaller_than_pad(self, kernel, dilation):
        # a 2x3 image under a pad of 2: rows reflect more than once
        x, w, b = _conv_inputs(2, 3, kernel, dilation, 1, hw=(2, 3))
        got = ops.conv2d(_t64(x), _t64(w), _t64(b), dilation)
        want = conv2d_oracle(x, w, b, kernel, dilation=dilation)
        assert rel_err(got.data, want) < 1e-6
        assert T.grad_check(
            lambda t: T.reduce_mean(T.sigmoid(ops.conv2d(t, _t64(w), None, dilation))),
            x) < 1e-6

    def test_two_channel_5x5_oracle(self):
        g = rng(42)
        x = g.normal(size=(2, 5, 5))
        w = g.normal(size=(3, 2, 3, 3))
        b = g.normal(size=3)
        got = ops.conv2d(_t64(x), _t64(w), _t64(b))
        want = conv2d_oracle(x, w, b, (3, 3))
        assert rel_err(got.data, want) < 1e-6

    def test_identity_kernel(self):
        x = rng(1).normal(size=(3, 6, 6))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        got = ops.conv2d(_t64(x), _t64(w), None)
        np.testing.assert_allclose(got.data, x, rtol=1e-12)

    def test_no_bias(self):
        g = rng(2)
        x = g.normal(size=(2, 5, 5))
        w = g.normal(size=(2, 2, 3, 3))
        got = ops.conv2d(_t64(x), _t64(w), None)
        want = conv2d_oracle(x, w, None, (3, 3))
        assert rel_err(got.data, want) < 1e-6

    def test_grad_check_x_w_b(self):
        g = rng(3)
        x = g.normal(size=(2, 5, 6))
        w = g.normal(size=(3, 2, 3, 3))
        b = g.normal(size=3)

        def loss_of(xa, wa, ba):
            return T.reduce_mean(T.sigmoid(ops.conv2d(xa, wa, ba)))

        assert T.grad_check(
            lambda t: loss_of(t, _t64(w), _t64(b)), x) < 1e-6
        assert T.grad_check(
            lambda t: loss_of(_t64(x), t, _t64(b)), w) < 1e-6
        assert T.grad_check(
            lambda t: loss_of(_t64(x), _t64(w), t), b) < 1e-6

    def test_grad_check_dilated_depthwise(self):
        g = rng(4)
        x = g.normal(size=(3, 6, 6))
        w = g.normal(size=(3, 1, 3, 3))
        assert T.grad_check(
            lambda t: T.reduce_mean(T.sigmoid(ops.conv2d(t, _t64(w), None, 2))),
            x) < 1e-6
        assert T.grad_check(
            lambda t: T.reduce_mean(T.sigmoid(ops.conv2d(_t64(x), t, None, 2))),
            w) < 1e-6

    @pytest.mark.parametrize(
        "c_in,c_out,kernel,dilation,groups",
        [
            (2, 3, (3, 3), 2, 1),  # dense dilated, as HFSE dil2
            (3, 3, (5, 5), 1, 3),  # depthwise 5x5, as HFSE dw5
            (4, 4, (3, 3), 1, 2),
        ],
    )
    def test_grad_check_x_w(self, c_in, c_out, kernel, dilation, groups):
        x, w, b = _conv_inputs(c_in, c_out, kernel, dilation, groups,
                                     hw=(6, 7))

        def loss_of(xa, wa):
            return T.reduce_mean(T.sigmoid(ops.conv2d(xa, wa, _t64(b), dilation)))

        assert T.grad_check(lambda t: loss_of(t, _t64(w)), x) < 1e-6
        assert T.grad_check(lambda t: loss_of(_t64(x), t), w) < 1e-6

    def test_forward_peak_memory_bounded_by_input(self):
        # no patch or column copy: the padded image plus one output-sized
        # temporary per tap; a (C_in*kh*kw, H*W) copy would be 9x the input
        g = rng(6)
        x = g.normal(size=(64, 128, 128)).astype(np.float32)
        w = g.normal(size=(8, 64, 3, 3)).astype(np.float32)
        b = np.zeros(8, dtype=np.float32)
        tracemalloc.start()
        try:
            ops.conv2d(Tensor(x), Tensor(w), Tensor(b))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * x.nbytes

    def test_group_mismatch_rejected(self):
        # the weight's C_in/g must divide C_in, and g must divide C_out
        with pytest.raises(ContractViolation):
            ops.conv2d(_t64(np.ones((3, 4, 4))), _t64(np.ones((2, 2, 3, 3))),
                       None)
        with pytest.raises(ContractViolation):
            ops.conv2d(_t64(np.ones((4, 4, 4))), _t64(np.ones((3, 2, 3, 3))),
                       None)
        with pytest.raises(ContractViolation):
            ops.conv2d(_t64(np.ones((2, 4, 4))), _t64(np.ones((2, 2, 3, 3))),
                       None, 0)


class TestLayerNorm:
    def test_unit_variance_per_position(self):
        x = rng(5).normal(2.0, 3.0, size=(8, 4, 4))
        got = ops.layernorm(_t64(x), _t64(np.ones(8)), _t64(np.zeros(8))).data
        assert np.abs(got.mean(axis=0)).max() < 1e-7
        assert np.abs(got.std(axis=0) - 1.0).max() < 1e-3  # eps-limited

    def test_gamma_beta_applied(self):
        x = rng(6).normal(size=(4, 3, 3))
        gamma = np.array([1.0, 2.0, 3.0, 4.0])
        beta = np.array([0.5, -0.5, 0.0, 1.0])
        got = ops.layernorm(_t64(x), _t64(gamma), _t64(beta)).data
        base = ops.layernorm(_t64(x), _t64(np.ones(4)), _t64(np.zeros(4))).data
        np.testing.assert_allclose(
            got, base * gamma[:, None, None] + beta[:, None, None], rtol=1e-10)

    def test_straight_line_oracle(self):
        x = rng(7).normal(size=(5, 2, 2))
        eps = 1e-5
        mu = x.mean(axis=0)
        var = x.var(axis=0)
        want = (x - mu) / np.sqrt(var + eps)
        got = ops.layernorm(_t64(x), _t64(np.ones(5)), _t64(np.zeros(5))).data
        assert rel_err(got, want) < 1e-6

    def test_grad_check_all_inputs(self):
        g = rng(8)
        x = g.normal(size=(6, 3, 4))
        gamma = g.normal(size=6)
        beta = g.normal(size=6)
        assert T.grad_check(
            lambda t: T.reduce_mean(T.sigmoid(
                ops.layernorm(t, _t64(gamma), _t64(beta)))), x, eps=1e-4) < 1e-5
        assert T.grad_check(
            lambda t: T.reduce_mean(T.sigmoid(
                ops.layernorm(_t64(x), t, _t64(beta)))), gamma) < 1e-6
        assert T.grad_check(
            lambda t: T.reduce_mean(T.sigmoid(
                ops.layernorm(_t64(x), _t64(gamma), t))), beta) < 1e-6


class TestChannelAttention:
    def test_constant_channels_pool_exactly(self):
        # x with channel c constant at v_c pools to exactly v_c
        v = np.array([0.3, -1.2, 2.0, 0.0])
        x = np.broadcast_to(v[:, None, None], (4, 5, 5)).copy()
        w1, b1 = np.zeros((1, 4)), np.zeros(1)
        w2, b2 = np.zeros((4, 1)), np.zeros(4)
        got = ops.channel_attention(_t64(x), _t64(w1), _t64(w2), _t64(b1),
                                    _t64(b2)).data
        # zero weights: sigmoid(0) = 0.5 gate on every channel
        np.testing.assert_allclose(got, 0.5 * x, rtol=1e-12)

    def test_straight_line_oracle(self):
        g = rng(9)
        c, hidden = 4, 2
        x = g.normal(size=(c, 3, 3))
        w1 = g.normal(size=(hidden, c))
        w2 = g.normal(size=(c, hidden))
        b1 = g.normal(size=hidden)
        b2 = g.normal(size=c)
        pooled = x.mean(axis=(1, 2))
        z = np.maximum(w1 @ pooled + b1, 0.0)
        gate = 1.0 / (1.0 + np.exp(-(w2 @ z + b2)))
        want = x * gate[:, None, None]
        got = ops.channel_attention(_t64(x), _t64(w1), _t64(w2),
                                    _t64(b1), _t64(b2)).data
        assert rel_err(got, want) < 1e-6

    def test_grad_check(self):
        g = rng(10)
        x = g.normal(size=(4, 3, 3))
        w1 = g.normal(size=(2, 4))
        w2 = g.normal(size=(4, 2))
        b1, b2 = _t64(np.zeros(2)), _t64(np.zeros(4))
        assert T.grad_check(
            lambda t: T.reduce_mean(T.sigmoid(
                ops.channel_attention(t, _t64(w1), _t64(w2), b1, b2))), x) < 1e-6
        assert T.grad_check(
            lambda t: T.reduce_mean(T.sigmoid(
                ops.channel_attention(_t64(x), t, _t64(w2), b1, b2))), w1) < 1e-6

    def test_bottleneck_width(self):
        assert ops.ca_bottleneck(16) == 4
        assert ops.ca_bottleneck(8) == 2
        assert ops.ca_bottleneck(4) == 1
        assert ops.ca_bottleneck(2) == 1  # clamped at 1


class TestBicubic:
    def test_scale_one_is_identity(self):
        x = rng(11).random((3, 6, 7)).astype(np.float32)
        got = ops.bicubic_resize(Tensor(x), 1)
        np.testing.assert_array_equal(got.data, x)

    def test_constant_preserved(self):
        x = np.full((2, 4, 4), 0.7, dtype=np.float64)
        got = ops.bicubic_resize(_t64(x), 4).data
        assert got.shape == (2, 16, 16)
        np.testing.assert_allclose(got, 0.7, rtol=1e-12)

    def test_linear_ramp_interior(self):
        # Keys cubic reproduces degree-1 polynomials away from clamped edges
        h, w, s = 12, 12, 2
        ramp = np.arange(w, dtype=np.float64)[None, None, :].repeat(h, axis=1)
        up = ops.bicubic_resize(_t64(ramp), s).data[0]
        jj = np.arange(w * s)
        src = (jj + 0.5) / s - 0.5
        margin = 3 * s
        inner = slice(margin, w * s - margin)
        assert np.abs(up[:, inner] - src[inner][None, :]).max() < 1e-5

    def test_downscale_shape(self):
        x = rng(12).random((2, 8, 8))
        assert ops.bicubic_resize(_t64(x), 0.5).data.shape == (2, 4, 4)

    def test_kernel_weights_rows_sum_to_one(self):
        w = ops._keys_weights(8, 16, 2.0, np.float64)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)


class TestAdamW:
    def test_single_step_hand_recurrence(self):
        # f(x) = x^2 at x = 1, lr = 0.1, wd = 0
        params = {"x": np.array([1.0], dtype=np.float64)}
        grads = {"x": np.array([2.0], dtype=np.float64)}
        state = OptState(lr=0.1, weight_decay=0.0)
        ops.adamw_step(params, grads, state)
        # hand-run: m = 0.2, v = 0.004, mhat = 2, vhat = 4,
        # x -= 0.1 * 2 / (2 + 1e-8)
        want = 1.0 - 0.1 * 2.0 / (2.0 + 1e-8)
        assert params["x"][0] == pytest.approx(want, rel=1e-12)
        assert params["x"][0] < 1.0

    def test_decoupled_weight_decay(self):
        params = {"x": np.array([2.0], dtype=np.float64)}
        grads = {"x": np.array([0.0], dtype=np.float64)}
        state = OptState(lr=0.5, weight_decay=0.1)
        ops.adamw_step(params, grads, state)
        # zero grad: only the decay path moves x: x -= lr * wd * x
        assert params["x"][0] == pytest.approx(2.0 - 0.5 * 0.1 * 2.0)

    def test_three_steps_match_reference_loop(self):
        g = rng(13)
        x0 = g.normal(size=(4,))
        gs = [g.normal(size=(4,)) for _ in range(3)]
        params = {"x": x0.copy()}
        state = OptState(lr=0.01, weight_decay=0.01)
        for gr in gs:
            ops.adamw_step(params, {"x": gr}, state)
        # independent straight-line reference
        m = np.zeros(4)
        v = np.zeros(4)
        x = x0.copy()
        for t, gr in enumerate(gs, start=1):
            m = 0.9 * m + 0.1 * gr
            v = 0.999 * v + 0.001 * gr * gr
            mh = m / (1 - 0.9**t)
            vh = v / (1 - 0.999**t)
            x = x - 0.01 * (mh / (np.sqrt(vh) + 1e-8) + 0.01 * x)
        np.testing.assert_allclose(params["x"], x, rtol=1e-12)

    def test_state_counts_steps(self):
        params = {"x": np.zeros(2)}
        state = OptState(lr=0.1)
        for _ in range(5):
            ops.adamw_step(params, {"x": np.ones(2)}, state)
        assert state.step == 5


class TestL1Loss:
    def test_value_matches_mean_abs(self):
        g = rng(14)
        a = g.normal(size=(3, 4, 4))
        b = g.normal(size=(3, 4, 4))
        got = ops.l1_loss(_t64(a), _t64(b)).item()
        assert got == pytest.approx(np.abs(a - b).mean(), rel=1e-12)

    def test_identical_inputs_zero(self):
        a = rng(15).normal(size=(2, 3))
        assert ops.l1_loss(_t64(a), _t64(a.copy())).item() == 0.0

    def test_grad_check(self):
        g = rng(16)
        a = g.normal(size=(3, 5))
        b = g.normal(size=(3, 5))  # a != b everywhere w.p. 1, so |.| smooth
        assert T.grad_check(
            lambda t: ops.l1_loss(t, _t64(b)), a) < 1e-6
