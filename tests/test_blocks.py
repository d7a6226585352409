"""VSSM, soft gate, LFSE, HFSE, HLFD: specs, shapes, oracles, gradients."""

import math

import numpy as np
import pytest

from conftest import (conv2d_oracle, init_param_dict, reduce_mean, rel_err,
                      rng, whole_block)
from stripesr import tensor as T
from stripesr.blocks import (
    CHANNEL_SCALING,
    ParamView,
    four_orders,
    gate_weights,
    hfse_forward,
    hfse_specs,
    hlfd_forward,
    hlfd_specs,
    inner_channels,
    lfse_forward,
    lfse_specs,
    soft_gate,
    vssm_forward,
    vssm_specs,
)
from stripesr.errors import ContractViolation
from stripesr.scan import KINDS, make_order
from stripesr.tensor import Tensor

# each block on its full-width input, as a model stage runs it
lfse, hfse, hlfd = map(whole_block, (lfse_forward, hfse_forward, hlfd_forward))


def _orders(x, kind="stripe"):
    """The four orders a model stage builds for `x`'s grid, stripes of 2."""
    return four_orders(kind, 2, *x.shape[1:])


def _t64(a):
    return Tensor(np.asarray(a), dtype=np.float64)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def run_block(fwd, specs, x, seed=0, override=None):
    raw = init_param_dict(specs, seed=seed)
    if override:
        for k, v in override.items():
            raw[k] = np.asarray(v, dtype=np.float64)
    params = {k: _t64(v) for k, v in raw.items()}
    return fwd(_t64(x), ParamView(params), _orders(x)), raw


class TestInnerChannels:
    def test_scaling_factor_is_eight(self):
        assert CHANNEL_SCALING == 8
        assert inner_channels(64) == 8
        assert inner_channels(128) == 16

    def test_clamped_below_eight(self):
        assert inner_channels(8) == 8
        assert inner_channels(16) == 8


class TestFourOrders:
    @pytest.mark.parametrize("kind", KINDS)
    def test_four_distinct_directions_on_a_non_square_grid(self, kind):
        # directions 0 and 1 walk the base scheme, 2 and 3 the transposed one,
        # built on the w x h grid and mapped back to flat h x w indices
        h, w, p = 6, 10, 2
        orders = four_orders(kind, p, h, w)
        perms = {o.perm.tobytes() for o in orders}
        assert len(perms) == 4
        base = make_order(kind, h, w, p, 0).perm
        q = make_order(kind, w, h, p, 0).perm
        transposed = (q % h) * w + q // h
        for k, want in enumerate((base, base[::-1], transposed, transposed[::-1])):
            np.testing.assert_array_equal(orders[k].perm, want)


class TestGateAlgebra:
    def test_weights_sum_to_one_on_grid(self):
        for alpha in np.linspace(-5.0, 5.0, 101):
            w1, w2 = gate_weights(float(alpha))
            assert abs(w1 + w2 - 1.0) < 1e-15

    def test_alpha_half_is_even_split(self):
        assert gate_weights(0.5) == (0.5, 0.5)

    def test_alpha_one_closed_form(self):
        w1, _ = gate_weights(1.0)
        assert w1 == pytest.approx(math.e / (math.e + 1.0), rel=1e-12)
        assert w1 == pytest.approx(0.7311, abs=1e-4)

    def test_monotone_in_alpha(self):
        ws = [gate_weights(a)[0] for a in np.linspace(-5, 5, 41)]
        assert all(b > a for a, b in zip(ws, ws[1:]))

    def test_soft_gate_matches_scalar_weights(self):
        g = rng(0)
        x1 = g.normal(size=(2, 3, 3))
        x21 = g.normal(size=(2, 3, 3))
        x22 = g.normal(size=(2, 3, 3))
        alpha = 0.8
        got = soft_gate(_t64(x1), _t64(x21), _t64(x22),
                        _t64(np.array([alpha]))).data
        w1, w2 = gate_weights(alpha)
        np.testing.assert_allclose(got, w1 * x21 * x1 + w2 * x22 * x1,
                                   rtol=1e-12)

    def test_soft_gate_alpha_gradient_nonzero(self):
        g = rng(1)
        x1, x21, x22 = (g.normal(size=(2, 3, 3)) for _ in range(3))

        def f(t):
            return reduce_mean(T.sigmoid(
                soft_gate(_t64(x1), _t64(x21), _t64(x22), t)))

        tape = T.Tape()
        a = tape.leaf(np.array([0.3]))
        tape.backward(f(a))
        assert abs(tape.grad(a)[0]) > 1e-6
        assert T.grad_check(f, np.array([0.3])) < 2e-3

    @pytest.mark.parametrize("name", ["x1", "x21", "x22", "alpha"])
    def test_soft_gate_grad_check_every_input(self, name):
        g = rng(3)
        raw = {k: g.normal(size=(2, 3, 4)) for k in ("x1", "x21", "x22")}
        raw["alpha"] = np.array([0.3])

        def f(t):
            args = {k: t if k == name else _t64(v) for k, v in raw.items()}
            return reduce_mean(T.sigmoid(soft_gate(**args)))

        assert T.grad_check(f, raw[name]) < 1e-6

    def test_soft_gate_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            soft_gate(_t64(np.ones((2, 2, 2))), _t64(np.ones((2, 2, 2))),
                      _t64(np.ones((2, 3, 2))), _t64(np.array([0.5])))


class TestVssm:
    def test_shape_preserved(self):
        out, _ = run_block(vssm_forward, vssm_specs(8, 4),
                           rng(2).normal(size=(8, 5, 7)))
        assert out.shape == (8, 5, 7)

    def test_zero_out_projection_is_identity(self):
        x = rng(3).normal(size=(8, 4, 4))
        out, _ = run_block(vssm_forward, vssm_specs(8, 2), x,
                           override={"out_proj.w": np.zeros((8, 16, 1, 1)),
                                     "out_proj.b": np.zeros(8)})
        np.testing.assert_allclose(out.data, x, rtol=1e-12)

    def test_scan_kind_changes_output_not_shape(self):
        x = rng(4).normal(size=(8, 6, 6))
        raw = init_param_dict(vssm_specs(8, 2), seed=5)
        outs = {}
        for kind in ("stripe", "raster", "window"):
            params = {k: _t64(v) for k, v in raw.items()}
            outs[kind] = vssm_forward(_t64(x), ParamView(params),
                                      _orders(x, kind)).data
        assert outs["stripe"].shape == outs["raster"].shape
        assert np.abs(outs["stripe"] - outs["raster"]).max() > 1e-8
        assert np.abs(outs["stripe"] - outs["window"]).max() > 1e-8

    def test_input_gradient(self):
        x = rng(6).normal(size=(4, 3, 4)) * 0.5
        raw = init_param_dict(vssm_specs(4, 2), seed=7)

        def f(t):
            params = {k: _t64(v) for k, v in raw.items()}
            return reduce_mean(T.sigmoid(
                vssm_forward(t, ParamView(params), _orders(t))))

        assert T.grad_check(f, x) < 2e-3


class TestLfse:
    def test_shape_preserved(self):
        out, _ = run_block(lfse, lfse_specs(64, 4),
                           rng(8).normal(size=(64, 6, 6)))
        assert out.shape == (64, 6, 6)

    def test_zero_branch_weights_straight_line_oracle(self):
        # with CA and VSSM projections zero: CA branch = 0.5 * x',
        # VSSM branch = x'; output = tail(sigmoid(0.5 x') * sigmoid(x') + x')
        c = 16
        inner = inner_channels(c)
        hidden = max(inner // 4, 1)
        x = rng(9).normal(size=(c, 4, 4)) * 0.5
        zero = {
            "ca.w1": np.zeros((hidden, inner)),
            "ca.w2": np.zeros((inner, hidden)),
            "ca.b1": np.zeros(hidden),
            "ca.b2": np.zeros(inner),
            "vssm.out_proj.w": np.zeros((inner, 2 * inner, 1, 1)),
            "vssm.out_proj.b": np.zeros(inner),
        }
        out, raw = run_block(lfse, lfse_specs(c, 2), x, seed=10,
                             override=zero)
        xp = conv2d_oracle(x, raw["head.w"], raw["head.b"], (3, 3))
        mixed = _sigmoid(0.5 * xp) * _sigmoid(xp) + xp
        want = conv2d_oracle(mixed, raw["tail.w"], raw["tail.b"], (3, 3))
        assert rel_err(out.data, want) < 1e-6

    def test_input_gradient(self):
        x = rng(11).normal(size=(8, 4, 4)) * 0.5
        raw = init_param_dict(lfse_specs(8, 2), seed=12)

        def f(t):
            params = {k: _t64(v) for k, v in raw.items()}
            return reduce_mean(T.sigmoid(
                lfse(t, ParamView(params), _orders(t))))

        assert T.grad_check(f, x) < 2e-3


class TestHfse:
    def test_shape_preserved(self):
        out, _ = run_block(hfse, hfse_specs(24, 4),
                           rng(13).normal(size=(24, 6, 6)))
        assert out.shape == (24, 6, 6)

    def test_alpha_present_and_scalar(self):
        specs = dict((name, shape) for name, shape, _ in hfse_specs(16, 2))
        assert specs["alpha"] == (1,)

    def test_alpha_gradient_nonzero(self):
        c = 8
        x = rng(14).normal(size=(c, 4, 4)) * 0.5
        raw = init_param_dict(hfse_specs(c, 2), seed=15)

        def f(t):
            params = {k: (t if k == "alpha" else _t64(v))
                      for k, v in raw.items()}
            return reduce_mean(T.sigmoid(
                hfse(_t64(x), ParamView(params), _orders(x))))

        tape = T.Tape()
        a = tape.leaf(raw["alpha"])
        tape.backward(f(a))
        assert abs(tape.grad(a)[0]) > 1e-10
        assert T.grad_check(f, raw["alpha"].copy(), eps=1e-4) < 2e-3

    def test_zero_vssm_straight_line_oracle(self):
        # with VSSM's out_proj zero its output is its input, so the global
        # branch is g = LN(g_conv(x')); at alpha = 0.9 the gate weights
        # differ, so swapping the two dilated branches changes the output
        c = 16
        inner = inner_channels(c)
        x = rng(23).normal(size=(c, 5, 6)) * 0.5
        alpha = 0.9
        zero = {"vssm.out_proj.w": np.zeros((inner, 2 * inner, 1, 1)),
                "vssm.out_proj.b": np.zeros(inner),
                "alpha": np.array([alpha])}
        out, raw = run_block(hfse, hfse_specs(c, 2), x, seed=24,
                             override=zero)
        xp = conv2d_oracle(x, raw["head.w"], raw["head.b"], (3, 3))
        gc = conv2d_oracle(xp, raw["g_conv.w"], raw["g_conv.b"], (3, 3))
        g = (gc - gc.mean(axis=0)) / np.sqrt(gc.var(axis=0) + 1e-5)
        local = conv2d_oracle(xp, raw["dw5.w"], raw["dw5.b"], (5, 5),
                              groups=inner)
        x21 = conv2d_oracle(local, raw["dil1.w"], raw["dil1.b"], (3, 3))
        x22 = conv2d_oracle(local, raw["dil2.w"], raw["dil2.b"], (3, 3),
                            dilation=2)
        w1 = math.exp(alpha) / (math.exp(alpha) + math.exp(1.0 - alpha))
        fused = w1 * x21 * g + (1.0 - w1) * x22 * g
        want = conv2d_oracle(fused + xp, raw["tail.w"], raw["tail.b"], (3, 3))
        assert rel_err(out.data, want) < 1e-6

    def test_input_gradient(self):
        x = rng(16).normal(size=(8, 4, 4)) * 0.5
        raw = init_param_dict(hfse_specs(8, 2), seed=17)

        def f(t):
            params = {k: _t64(v) for k, v in raw.items()}
            return reduce_mean(T.sigmoid(
                hfse(t, ParamView(params), _orders(t))))

        assert T.grad_check(f, x) < 2e-3


class TestHlfd:
    def test_shape_preserved(self):
        out, _ = run_block(hlfd, hlfd_specs(32, 4),
                           rng(18).normal(size=(32, 6, 6)))
        assert out.shape == (32, 6, 6)

    def test_zero_fuse_straight_line_oracle(self):
        # zero fuse conv: fused = y' (the residual), so out = tail(head(y))
        c = 16
        inner = inner_channels(c)
        x = rng(19).normal(size=(c, 4, 4)) * 0.5
        zero = {"fuse.w": np.zeros((inner, inner, 3, 3)),
                "fuse.b": np.zeros(inner)}
        out, raw = run_block(hlfd, hlfd_specs(c, 2), x, seed=20,
                             override=zero)
        yp = conv2d_oracle(x, raw["head.w"], raw["head.b"], (3, 3))
        want = conv2d_oracle(yp, raw["tail.w"], raw["tail.b"], (3, 3))
        assert rel_err(out.data, want) < 1e-6

    def test_input_gradient(self):
        x = rng(21).normal(size=(8, 4, 4)) * 0.5
        raw = init_param_dict(hlfd_specs(8, 2), seed=22)

        def f(t):
            params = {k: _t64(v) for k, v in raw.items()}
            return reduce_mean(T.sigmoid(
                hlfd(t, ParamView(params), _orders(t))))

        assert T.grad_check(f, x) < 2e-3


class TestParamView:
    def test_prefix_lookup(self):
        store = {"a.b.w": _t64(np.ones(2)), "a.c": _t64(np.zeros(1))}
        view = ParamView(store, "a.")
        np.testing.assert_array_equal(view["b.w"].data, np.ones(2))
        sub = view.sub("b")
        np.testing.assert_array_equal(sub["w"].data, np.ones(2))

    def test_missing_key(self):
        with pytest.raises(KeyError):
            ParamView({}, "")["nope"]
