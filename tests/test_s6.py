"""Selective-scan recurrence: oracles, causality, gradients."""

import numpy as np
import pytest

from conftest import rel_err, rng, s6_oracle
from stripesr import tensor as T
from stripesr.errors import ContractViolation
from stripesr.s6 import (
    S6Params,
    delta_rank,
    s6_forward_naive,
    ss2d,
)
from stripesr.scan import gather_tokens, scatter_tokens, stripe_order
from stripesr.tensor import Tensor


def make_params(seed, d, n, dtype=np.float64, scale=0.5):
    g = np.random.default_rng(seed)
    r = delta_rank(d)
    raw = dict(
        a_log=g.normal(0, scale, (d, n)),
        d_skip=g.normal(0, 1, d),
        w_b=g.normal(0, scale, (d, n)),
        w_c=g.normal(0, scale, (d, n)),
        w_dt_down=g.normal(0, scale, (r, d)),
        w_dt_up=g.normal(0, scale, (d, r)),
        b_dt=g.normal(0, scale, d),
    )
    return (S6Params(**{k: Tensor(v, dtype=dtype) for k, v in raw.items()}),
            raw)


class TestDeltaRank:
    def test_values(self):
        assert delta_rank(1) == 1
        assert delta_rank(15) == 1
        assert delta_rank(16) == 1
        assert delta_rank(32) == 2
        assert delta_rank(64) == 4


class TestNaiveForward:
    def test_hand_unrolled_three_steps(self):
        p, raw = make_params(7, 1, 1)
        x = np.array([[0.3, -0.5, 0.9]])
        got = s6_forward_naive(Tensor(x, dtype=np.float64), p).data
        want = s6_oracle(x, **raw)
        assert rel_err(got, want) < 1e-6

    def test_matches_loop_oracle_larger(self):
        p, raw = make_params(3, 4, 8)
        x = rng(4).normal(size=(4, 32))
        got = s6_forward_naive(Tensor(x, dtype=np.float64), p).data
        assert rel_err(got, s6_oracle(x, **raw)) < 1e-6

    def test_zero_input_zero_output(self):
        p, _ = make_params(5, 3, 4)
        out = s6_forward_naive(Tensor(np.zeros((3, 6))), p).data
        assert np.abs(out).max() == 0.0

    def test_causality(self):
        # perturbing token t must not change outputs before t
        p, _ = make_params(6, 2, 4)
        x = rng(7).normal(size=(2, 16))
        y0 = s6_forward_naive(Tensor(x, dtype=np.float64), p).data
        xp = x.copy()
        xp[:, 9] += 1.0
        y1 = s6_forward_naive(Tensor(xp, dtype=np.float64), p).data
        np.testing.assert_array_equal(y1[:, :9], y0[:, :9])
        assert np.abs(y1[:, 9:] - y0[:, 9:]).max() > 0

    def test_stability_long_constant_input(self):
        # A = -exp(a_log) < 0 keeps the state decay factor in (0, 1), so a
        # long constant input cannot blow up
        p, _ = make_params(8, 2, 4)
        x = np.ones((2, 4096))
        out = s6_forward_naive(Tensor(x, dtype=np.float64), p).data
        assert np.isfinite(out).all()
        assert np.abs(out[:, -1] - out[:, -2]).max() < 1e-6  # converged

    def test_param_shape_validation(self):
        p, _ = make_params(9, 2, 4)
        bad = S6Params(
            a_log=p.a_log, d_skip=Tensor(np.ones(3)), w_b=p.w_b, w_c=p.w_c,
            w_dt_down=p.w_dt_down, w_dt_up=p.w_dt_up, b_dt=p.b_dt)
        with pytest.raises(ContractViolation):
            s6_forward_naive(Tensor(np.zeros((2, 4))), bad)


class TestGradients:
    def test_input_gradient(self):
        p, _ = make_params(15, 2, 3)
        x = rng(16).normal(size=(2, 6))
        err = T.grad_check(
            lambda t: T.reduce_sum(T.sigmoid(s6_forward_naive(t, p))), x)
        assert err < 2e-3

    @pytest.mark.parametrize(
        "key", ["a_log", "d_skip", "w_b", "w_c", "w_dt_down", "w_dt_up", "b_dt"])
    def test_parameter_gradients(self, key):
        _, raw = make_params(17, 2, 3)
        x = rng(18).normal(size=(2, 6))

        def f(t):
            kw = {k: (t if k == key else Tensor(v, dtype=np.float64))
                  for k, v in raw.items()}
            return T.reduce_sum(T.sigmoid(
                s6_forward_naive(Tensor(x, dtype=np.float64), S6Params(**kw))))

        assert T.grad_check(f, raw[key].copy()) < 2e-3


class TestSs2d:
    def _orders(self, h, w):
        return [stripe_order(h, w, 2, d) for d in range(4)]

    def test_skip_only_sums_four_directions(self):
        d = 3
        zeros = lambda s: Tensor(np.zeros(s))
        params = [
            S6Params(a_log=Tensor(np.zeros((d, 2))), d_skip=Tensor(np.ones(d)),
                     w_b=zeros((d, 2)), w_c=zeros((d, 2)),
                     w_dt_down=zeros((1, d)), w_dt_up=zeros((d, 1)),
                     b_dt=zeros((d,)))
            for _ in range(4)
        ]
        x = Tensor(rng(19).normal(size=(d, 4, 6)).astype(np.float32))
        out = ss2d(x, params, self._orders(4, 6))
        np.testing.assert_array_equal(out.data, 4 * x.data)

    def test_single_direction_equals_gather_scan_scatter(self):
        # zero out three directions entirely; the fourth must reduce to the
        # explicit gather -> s6 -> scatter composition
        d, n = 3, 4
        live, _ = make_params(20, d, n)
        dead = S6Params(**{
            k: Tensor(np.zeros_like(getattr(live, k).data))
            for k in ("a_log", "d_skip", "w_b", "w_c",
                      "w_dt_down", "w_dt_up", "b_dt")})
        orders = self._orders(4, 6)
        x = Tensor(rng(21).normal(size=(d, 4, 6)), dtype=np.float64)
        for which in range(4):
            params = [live if k == which else dead for k in range(4)]
            got = ss2d(x, params, orders).data
            seq = gather_tokens(x, orders[which])
            want = scatter_tokens(s6_forward_naive(seq, live),
                                  orders[which]).data
            assert rel_err(got, want) < 1e-6, which

    def test_gradient_through_all_directions(self):
        d, n = 2, 2
        raws = [make_params(30 + k, d, n)[1] for k in range(4)]
        orders = self._orders(3, 4)
        x = rng(22).normal(size=(d, 3, 4))

        def f(t):
            params = [
                S6Params(**{k: Tensor(v, dtype=np.float64)
                            for k, v in raw.items()})
                for raw in raws
            ]
            return T.reduce_sum(T.sigmoid(ss2d(t, params, orders)))

        assert T.grad_check(f, x) < 2e-3

    def test_parameter_shared_across_directions(self):
        # one S6Params object for all four directions: a_log's gradient is
        # the sum of its four per-direction gradients
        d, n = 2, 2
        _, raw = make_params(31, d, n)
        orders = self._orders(3, 4)
        x = Tensor(rng(24).normal(size=(d, 3, 4)), dtype=np.float64)

        def f(t):
            kw = {k: (t if k == "a_log" else Tensor(v, dtype=np.float64))
                  for k, v in raw.items()}
            return T.reduce_sum(T.sigmoid(ss2d(x, [S6Params(**kw)] * 4, orders)))

        assert T.grad_check(f, raw["a_log"].copy()) < 2e-3

    def test_requires_four_of_each(self):
        p, _ = make_params(23, 2, 2)
        with pytest.raises(ContractViolation):
            ss2d(Tensor(np.zeros((2, 3, 4))), [p] * 3, self._orders(3, 4))
