"""Selective-scan recurrence: oracles, causality, gradients."""

import numpy as np
import pytest

from conftest import (reduce_mean, rel_err, rng, s6_oracle, traced_peak,
                      traced_retained)
from stripesr import tensor as T
from stripesr.errors import ContractViolation, NumericError
from stripesr.s6 import CHUNK, S6Params, _s6_core, delta_rank, ss2d
from stripesr.scan import gather_tokens, make_order, scatter_tokens
from stripesr.tensor import Tape, Tensor


KEYS = ["a_log", "d_skip", "w_b", "w_c", "w_dt_down", "w_dt_up", "b_dt"]


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
    """One (1, d, T) sequence through `_s6_core`."""

    def test_hand_unrolled_three_steps(self):
        p, raw = make_params(7, 1, 1)
        x = np.array([[[0.3, -0.5, 0.9]]])
        got = _s6_core(Tensor(x.copy(), dtype=np.float64), [p]).data[0]
        want = s6_oracle(x[0], **raw)
        assert rel_err(got, want) < 1e-6

    def test_matches_loop_oracle_larger(self):
        p, raw = make_params(3, 4, 8)
        x = rng(4).normal(size=(1, 4, 32))
        got = _s6_core(Tensor(x.copy(), dtype=np.float64), [p]).data[0]
        assert rel_err(got, s6_oracle(x[0], **raw)) < 1e-6

    def test_zero_input_zero_output(self):
        p, _ = make_params(5, 3, 4)
        out = _s6_core(Tensor(np.zeros((1, 3, 6))), [p]).data
        assert np.abs(out).max() == 0.0

    def test_causality(self):
        # perturbing token t must not change outputs before t
        p, _ = make_params(6, 2, 4)
        x = rng(7).normal(size=(1, 2, 16))
        y0 = _s6_core(Tensor(x.copy(), dtype=np.float64), [p]).data
        xp = x.copy()
        xp[..., 9] += 1.0
        y1 = _s6_core(Tensor(xp, dtype=np.float64), [p]).data
        np.testing.assert_array_equal(y1[..., :9], y0[..., :9])
        assert np.abs(y1[..., 9:] - y0[..., 9:]).max() > 0

    def test_stability_long_constant_input(self):
        # A = -exp(a_log) < 0 keeps the state decay factor in (0, 1), so a
        # long constant input cannot blow up
        p, _ = make_params(8, 2, 4)
        x = np.ones((1, 2, 4096))
        out = _s6_core(Tensor(x, dtype=np.float64), [p]).data[0]
        assert np.isfinite(out).all()
        assert np.abs(out[:, -1] - out[:, -2]).max() < 1e-6  # converged

    @pytest.mark.parametrize("key", KEYS + ["a_log-1d", "rank-2-at-d-16"])
    def test_param_shape_validation(self, key):
        # one field's last axis one too long: d=2, n=4, r=1; a 1-D a_log;
        # a rank other than delta_rank(16) = 1
        d = 16 if key == "rank-2-at-d-16" else 2
        _, raw = make_params(9, d, 4)
        if key == "a_log-1d":
            raw["a_log"] = raw["a_log"].ravel()
        elif key == "rank-2-at-d-16":
            raw["w_dt_down"], raw["w_dt_up"] = np.ones((2, d)), np.ones((d, 2))
        else:
            raw[key] = np.ones(raw[key].shape[:-1] + (raw[key].shape[-1] + 1,))
        bad = S6Params(**{k: Tensor(v) for k, v in raw.items()})
        with pytest.raises(ContractViolation, match="inconsistent"):
            _s6_core(Tensor(np.zeros((1, d, 4))), [bad])

    def test_param_d_must_match_sequence(self):
        p, _ = make_params(9, 3, 4)  # consistent, but d=3
        with pytest.raises(ContractViolation, match="d=3 does not match"):
            _s6_core(Tensor(np.zeros((1, 2, 4))), [p])

    @pytest.mark.parametrize("shape", [(2, 4), (2, 1, 2, 4), (2, 2, 4)],
                             ids=["2d", "4d", "two-entries"])
    def test_sequence_must_be_one_entry_per_head(self, shape):
        p, _ = make_params(9, 2, 4)
        with pytest.raises(ContractViolation, match="one S6Params required per"):
            _s6_core(Tensor(np.zeros(shape)), [p])


class TestCore:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_taped_and_untaped_outputs_bit_identical(self, dtype):
        # both walk the same one-chunk buffers, and only the untaped call
        # writes y over x; T = CHUNK + 3 ends in a short second chunk, and
        # 3 * CHUNK + 5 carries h across three chunk edges
        sets = [make_params(50 + k, 4, 8, dtype=dtype) for k in range(3)]
        for t in (17, CHUNK + 3, 3 * CHUNK + 5):
            x = rng(51).normal(size=(3, 4, t)).astype(dtype)
            plain = _s6_core(Tensor(x.copy()), [p for p, _ in sets])
            tape = Tape()
            taped = _s6_core(tape.leaf(x), [
                S6Params(**{k: tape.leaf(np.asarray(v, dtype))
                            for k, v in raw.items()})
                for _, raw in sets])
            assert plain.node_id is None and taped.node_id is not None
            assert plain.dtype == taped.dtype == dtype
            np.testing.assert_array_equal(plain.data, taped.data)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_heads_repeated_per_sample_equal_one_call_each(self, dtype):
        # two samples' four directions as one 8-entry batch, heads * 2:
        # exactly the outputs of one 4-entry call per sample
        d, n, t = 32, 16, 600
        heads = [make_params(90 + k, d, n, dtype=dtype)[0] for k in range(4)]
        x = rng(91).normal(size=(8, d, t)).astype(dtype)
        both = _s6_core(Tensor(x.copy()), heads * 2).data
        each = [_s6_core(Tensor(x[s].copy()), heads).data
                for s in (slice(0, 4), slice(4, 8))]
        assert np.array_equal(both, np.concatenate(each))

    def test_heads_repeated_per_sample_sum_their_gradients(self):
        # on the tape, each head's gradient from the 8-entry batch is the
        # sum of its gradients from the two 4-entry calls
        d, n, t = 32, 16, 600
        raws = [make_params(90 + k, d, n)[1] for k in range(4)]
        x = rng(91).normal(size=(8, d, t))
        w = Tensor(rng(92).normal(size=x.shape))

        def head_grads(calls):
            tape = Tape()
            heads = [S6Params(**{k: tape.leaf(v) for k, v in raw.items()})
                     for raw in raws]
            ys = [_s6_core(tape.leaf(xs), heads * (2 // calls))
                  for xs in np.split(x, calls)]
            tape.backward(reduce_mean(T.mul(T.concat(ys, axis=0), w)))
            return [tape.grad(f) for head in heads for f in head]

        for one, two in zip(head_grads(1), head_grads(2)):
            assert rel_err(one, two) < 1e-12

    @pytest.mark.parametrize("b_dt", [30.0, -30.0])
    def test_saturating_and_vanishing_step_match_oracle(self, b_dt):
        # delta ~ 30 zeroes the decays; delta ~ exp(-30) barely moves h.
        # Both tails of the softplus, batched and one entry at a time.
        raws = [make_params(70 + k, 4, 8)[1] for k in range(3)]
        params = []
        for raw in raws:
            raw["b_dt"] = np.full(4, b_dt)
            params.append(S6Params(**{k: Tensor(v, dtype=np.float64)
                                      for k, v in raw.items()}))
        x = rng(71).normal(size=(3, 4, CHUNK + 5))
        got = _s6_core(Tensor(x.copy(), dtype=np.float64), params).data
        for k, raw in enumerate(raws):
            want = s6_oracle(x[k], **raw)
            assert rel_err(got[k], want) < 1e-5
            one = _s6_core(Tensor(x[k : k + 1].copy(), dtype=np.float64),
                           [params[k]])
            assert rel_err(one.data[0], want) < 1e-5

    def test_untaped_peak_memory_bounded_by_input(self):
        # O(CHUNK) buffers, the output written over the input; a
        # (T, B, d, n) state buffer would be n = 16 times the input
        sets = [make_params(60 + k, 16, 16, dtype=np.float32) for k in range(4)]
        x = rng(61).normal(size=(4, 16, 16384)).astype(np.float32)
        _, peak = traced_peak(lambda: _s6_core(Tensor(x), [p for p, _ in sets]))
        assert peak < 3 * x.nbytes

    @staticmethod
    def _taped_call(t, nb=4, d=16, n=16):
        """A float32 (nb, d, t) leaf, nb distinct heads on its tape and the
        bytes of the call's (T, B, d, n) states."""
        tape = Tape()
        x = tape.leaf(rng(63).normal(size=(nb, d, t)).astype(np.float32))
        heads = [S6Params(**{k: tape.leaf(np.asarray(v, np.float32))
                             for k, v in make_params(64 + j, d, n)[1].items()})
                 for j in range(nb)]
        return x, heads, t * nb * d * n * 4

    @pytest.mark.parametrize("t", [2 * CHUNK + 1, 8 * CHUNK + 1])
    def test_taped_call_keeps_no_states(self, t):
        # the call leaves y, 1/n = 0.0625 of the (T, B, d, n) states' bytes,
        # and one (B, d, n) entry state per chunk; keeping x's whole-T
        # projections as well breaks the bound
        x, heads, states = self._taped_call(t)
        y, kept = traced_retained(lambda: _s6_core(x, heads))
        assert y.node_id is not None
        assert kept < 0.1 * states

    def test_taped_backward_memory_and_dtype(self):
        # the backward recomputes each chunk's projections and states into
        # one-chunk buffers and writes gx a chunk at a time: a (T, B, d, n)
        # buffer, or whole-T projections and their gradients, break the
        # bound, and a matmul that upcasts breaks the float32 check
        x, heads, states = self._taped_call(8 * CHUNK + 1)
        y = _s6_core(x, heads)
        backward = y.tape.nodes[y.node_id].backward
        gy = rng(65).normal(size=y.shape).astype(np.float32)
        grads, peak = traced_peak(lambda: backward(gy))
        assert peak < 0.75 * states
        assert len(grads) == 1 + 7 * len(heads)
        assert all(g.dtype == np.float32 for g in grads)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_error_names_entry_and_token(self):
        # with unit weights a token of 1e120 puts x^3 = inf into the state
        # of entry 1 at a token in the second chunk
        ones = lambda *s: Tensor(np.ones(s))
        p = S6Params(a_log=ones(1, 1), d_skip=ones(1), w_b=ones(1, 1),
                     w_c=ones(1, 1), w_dt_down=ones(1, 1), w_dt_up=ones(1, 1),
                     b_dt=Tensor(np.zeros(1)))
        x = rng(62).normal(size=(2, 1, 2 * CHUNK))
        x[1, 0, CHUNK + 7] = 1e120
        with pytest.raises(NumericError,
                           match=f"token {CHUNK + 7} of batch entry 1$"):
            _s6_core(Tensor(x, dtype=np.float64), [p, p])
        # entry 0 goes bad later than entry 1: the earliest token is named
        x[0, 0, CHUNK + 9] = 1e120
        with pytest.raises(NumericError,
                           match=f"token {CHUNK + 7} of batch entry 1$"):
            _s6_core(Tensor(x, dtype=np.float64), [p, p])


class TestGradients:
    @staticmethod
    def _input_err(t):
        p, _ = make_params(15, 2, 3)
        x = rng(16).normal(size=(1, 2, t))
        return T.grad_check(
            lambda s: reduce_mean(T.sigmoid(_s6_core(s, [p]))), x)

    @staticmethod
    def _param_err(key, t):
        _, raw = make_params(17, 2, 3)
        x = rng(18).normal(size=(1, 2, t))

        def f(s):
            kw = {k: (s if k == key else Tensor(v, dtype=np.float64))
                  for k, v in raw.items()}
            return reduce_mean(T.sigmoid(
                _s6_core(Tensor(x.copy(), dtype=np.float64), [S6Params(**kw)])))

        return T.grad_check(f, raw[key].copy())

    def test_input_gradient(self):
        assert self._input_err(6) < 2e-3

    @pytest.mark.parametrize("key", KEYS)
    def test_parameter_gradients(self, key):
        assert self._param_err(key, 6) < 2e-3

    # at T=1 each token loop makes one step and no state has a predecessor
    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("key", ["x"] + KEYS)
    def test_short_sequences(self, key, t):
        err = self._input_err(t) if key == "x" else self._param_err(key, t)
        assert err < 2e-3

    # the second chunk starts from the state carried out of the first
    @pytest.mark.parametrize("key", ["x"] + KEYS)
    def test_across_chunk_boundary(self, key):
        t = CHUNK + 3
        err = self._input_err(t) if key == "x" else self._param_err(key, t)
        assert err < 2e-3

    def test_input_gradient_across_two_chunk_boundaries(self):
        # the third chunk starts from a state carried through the second
        assert self._input_err(2 * CHUNK + 1) < 2e-3

    @pytest.mark.parametrize("key", KEYS)
    def test_parameter_gradients_across_two_chunk_boundaries(self, key):
        assert self._param_err(key, 2 * CHUNK + 1) < 2e-3

    def test_directional_derivatives_across_four_chunk_edges(self):
        # float64, two distinct heads, T = 4 * CHUNK + 7: along a random
        # direction, each gradient against a central difference of
        # sum(y * w); a dropped dL/dh carry at a chunk edge is off by 0.1
        nb, d, n, t, eps = 2, 4, 3, 4 * CHUNK + 7, 1e-6
        flat = [rng(111).normal(size=(nb, d, t))]
        flat += [make_params(110 + j, d, n)[1][k] for j in range(nb) for k in KEYS]
        w = rng(112).normal(size=(nb, d, t))

        def call(arrays, leaf):
            heads = [S6Params(*map(leaf, arrays[1 + 7 * j : 8 + 7 * j]))
                     for j in range(nb)]
            return _s6_core(leaf(arrays[0].copy()), heads)

        tape = Tape()
        y = call(flat, tape.leaf)
        grads = tape.nodes[y.node_id].backward(w)
        g = np.random.default_rng(113)
        for i, (p, grad) in enumerate(zip(flat, grads)):
            v = g.normal(size=p.shape)
            f = [np.sum(call(flat[:i] + [p + s * v] + flat[i + 1 :],
                             lambda a: Tensor(a, dtype=np.float64)).data * w)
                 for s in (eps, -eps)]
            assert rel_err(np.sum(grad * v), (f[0] - f[1]) / (2 * eps)) < 1e-6, i

    def test_every_gradient_of_a_rank_two_batched_call(self):
        # delta rank 2 and distinct nb, n and t: a transposed w_dt_up or
        # w_dt_down gradient, or a b/n axis mix-up in the backward's GEMMs,
        # cannot pass as it could with square or size-1 axes
        nb, d, n, t = 3, 32, 5, 7
        assert delta_rank(d) == 2
        raws = [make_params(80 + k, d, n)[1] for k in range(nb)]
        x = rng(81).normal(size=(nb, d, t))

        def loss(seq, k=None, key=None, s=None):
            return reduce_mean(T.sigmoid(_s6_core(seq, [
                S6Params(**{name: (s if (j, name) == (k, key)
                                   else Tensor(v, dtype=np.float64))
                            for name, v in raw.items()})
                for j, raw in enumerate(raws)])))

        errs = {"x": T.grad_check(loss, x)}
        for k in range(nb):
            for key in KEYS:
                errs[k, key] = T.grad_check(
                    lambda s: loss(Tensor(x.copy(), dtype=np.float64), k, key, s),
                    raws[k][key].copy())
        assert max(errs.values()) < 2e-3, errs

    @pytest.mark.parametrize("key", KEYS)
    def test_each_entry_of_a_batched_call(self, key):
        # three distinct parameter sets in one _s6_core call; each entry's
        # gradient must reach its own parameters
        raws = [make_params(40 + k, 2, 3)[1] for k in range(3)]
        x = rng(41).normal(size=(3, 2, 5))
        for k in range(3):
            def f(s):
                seq = Tensor(x.copy(), dtype=np.float64)
                return reduce_mean(T.sigmoid(_s6_core(seq, [
                    S6Params(**{name: (s if (j, name) == (k, key)
                                       else Tensor(v, dtype=np.float64))
                                for name, v in raw.items()})
                    for j, raw in enumerate(raws)])))

            assert T.grad_check(f, raws[k][key].copy()) < 2e-3, k


class TestSs2d:
    def _orders(self, h, w):
        return [make_order("stripe", h, w, 2, d) for d in range(4)]

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
            for k in KEYS})
        orders = self._orders(4, 6)
        x = Tensor(rng(21).normal(size=(d, 4, 6)), dtype=np.float64)
        for which in range(4):
            params = [live if k == which else dead for k in range(4)]
            got = ss2d(x, params, orders).data
            one = [orders[which]]
            want = scatter_tokens(_s6_core(gather_tokens(x, one), [live]), one).data
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
            return reduce_mean(T.sigmoid(ss2d(t, params, orders)))

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
            return reduce_mean(T.sigmoid(ss2d(x, [S6Params(**kw)] * 4, orders)))

        assert T.grad_check(f, raw["a_log"].copy()) < 2e-3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_untaped_output_bit_identical_to_taped(self, dtype):
        # the untaped scan writes its output over the gathered sequences;
        # 20 x 30 = 600 tokens run three chunks
        sets = [make_params(27 + k, 3, 4, dtype=dtype)[0] for k in range(4)]
        orders = self._orders(20, 30)
        img = rng(28).normal(size=(3, 20, 30)).astype(dtype)
        kept = img.copy()
        plain = ss2d(Tensor(img), sets, orders)
        np.testing.assert_array_equal(img, kept)
        taped = ss2d(Tape().leaf(img), sets, orders)
        assert plain.node_id is None and taped.node_id is not None
        np.testing.assert_array_equal(plain.data, taped.data)

    def test_untaped_peak_memory_holds_one_set_of_sequences(self):
        # the (K, C, T) sequences, the merged image and its per-order
        # temporary (6 images in all) plus O(CHUNK) buffers; a separate
        # (K, C, T) output would add 4 more images
        sets = [make_params(29 + k, 4, 16, dtype=np.float32)[0] for k in range(4)]
        img = rng(29).normal(size=(4, 256, 256)).astype(np.float32)
        orders = self._orders(256, 256)
        _, peak = traced_peak(lambda: ss2d(Tensor(img), sets, orders))
        assert peak < 7 * img.nbytes

    def test_records_three_tape_nodes(self):
        # cross-scan, scan and cross-merge: one node each for all four orders
        p, _ = make_params(25, 2, 2)
        tape = Tape()
        x = tape.leaf(rng(26).normal(size=(2, 3, 4)))
        before = len(tape.nodes)
        ss2d(x, [p] * 4, self._orders(3, 4))
        assert len(tape.nodes) - before == 3

    def test_requires_four_of_each(self):
        p, _ = make_params(23, 2, 2)
        with pytest.raises(ContractViolation):
            ss2d(Tensor(np.zeros((2, 3, 4))), [p] * 3, self._orders(3, 4))
