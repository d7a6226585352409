"""Single-level orthonormal Haar analysis/synthesis."""

import numpy as np
import pytest

from conftest import peak_maps, reduce_mean, rng
from stripesr import tensor as T
from stripesr.errors import ContractViolation
from stripesr.tensor import Tensor
from stripesr.wavelet import WaveletPair, dwt_haar, iwt_haar


def _t64(a):
    return Tensor(np.asarray(a), dtype=np.float64)


class TestAnalysis:
    def test_known_2x2_block(self):
        # block [1 2; 3 4] -> LL=5, LH=-1, HL=-2, HH=0 under the /2 filter
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        p = dwt_haar(_t64(x))
        assert p.low.data[0, 0, 0] == 5.0
        lh, hl, hh = p.high.data[:, 0, 0]
        assert (lh, hl, hh) == (-1.0, -2.0, 0.0)

    def test_shapes(self):
        p = dwt_haar(_t64(np.zeros((3, 8, 10))))
        assert p.low.shape == (3, 4, 5)
        assert p.high.shape == (9, 4, 5)

    def test_constant_input(self):
        p = dwt_haar(_t64(np.full((2, 4, 4), 0.5)))
        np.testing.assert_array_equal(p.low.data, np.full((2, 2, 2), 1.0))
        assert np.abs(p.high.data).max() == 0.0

    def test_energy_preserved(self):
        x = rng(0).normal(size=(1, 8, 8))
        p = dwt_haar(_t64(x))
        energy = (p.low.data**2).sum() + (p.high.data**2).sum()
        assert abs(energy - (x**2).sum()) < 1e-5 * (x**2).sum()

    def test_odd_dims_rejected(self):
        with pytest.raises(ContractViolation):
            dwt_haar(_t64(np.zeros((1, 5, 4))))
        with pytest.raises(ContractViolation):
            dwt_haar(_t64(np.zeros((1, 4, 7))))

    def test_peak_memory_is_the_outputs(self):
        # x, one 64-channel map, is allocated before tracing; low and high
        # (1 map together) are the only arrays the DWT allocates
        x = Tensor(rng(1).random((64, 256, 256), dtype=np.float32))
        p, maps = peak_maps(lambda: dwt_haar(x), 256, 256)
        assert p.low.dtype == np.float32
        assert maps < 1.03


PHASE_SHAPES = [((37, 4, 6), np.float32), ((5, 6, 10), np.float64),
                ((37, 4, 6), np.float64), ((5, 6, 10), np.float32)]


class TestStraightLineFormulas:
    # each band and phase written out on its own, evaluated left to right
    # as the mix does, so the results agree bit for bit

    @pytest.mark.parametrize("shape,dtype", PHASE_SHAPES)
    def test_dwt(self, shape, dtype):
        x = rng(6).normal(size=shape).astype(dtype)
        a, b, c, d = (x[:, i::2, j::2] for i in (0, 1) for j in (0, 1))
        p = dwt_haar(Tensor(x, dtype=dtype))
        want = np.concatenate([(a - b + c - d) / 2, (a + b - c - d) / 2,
                               (a - b - c + d) / 2])
        assert p.low.dtype == p.high.dtype == dtype
        np.testing.assert_array_equal(p.low.data, (a + b + c + d) / 2)
        np.testing.assert_array_equal(p.high.data, want)

    @pytest.mark.parametrize("shape,dtype", PHASE_SHAPES)
    def test_iwt(self, shape, dtype):
        ch, h, w = shape
        g = rng(7)
        ll = g.normal(size=(ch, h // 2, w // 2)).astype(dtype)
        high = g.normal(size=(3 * ch, h // 2, w // 2)).astype(dtype)
        lh, hl, hh = np.split(high, 3)
        out = iwt_haar(WaveletPair(Tensor(ll, dtype=dtype),
                                   Tensor(high, dtype=dtype))).data
        assert out.dtype == dtype
        np.testing.assert_array_equal(out[:, ::2, ::2], (ll + lh + hl + hh) / 2)
        np.testing.assert_array_equal(out[:, ::2, 1::2], (ll - lh + hl - hh) / 2)
        np.testing.assert_array_equal(out[:, 1::2, ::2], (ll + lh - hl - hh) / 2)
        np.testing.assert_array_equal(out[:, 1::2, 1::2], (ll - lh - hl + hh) / 2)


class TestRoundtrips:
    def test_iwt_of_dwt_is_identity(self):
        for seed in range(5):
            x = np.random.default_rng(seed).normal(size=(3, 6, 10))
            back = iwt_haar(dwt_haar(_t64(x)))
            assert np.abs(back.data - x).max() < 1e-6

    def test_dwt_of_iwt_is_identity(self):
        g = rng(1)
        p = WaveletPair(low=_t64(g.normal(size=(2, 3, 4))),
                        high=_t64(g.normal(size=(6, 3, 4))))
        q = dwt_haar(iwt_haar(p))
        assert np.abs(q.low.data - p.low.data).max() < 1e-6
        assert np.abs(q.high.data - p.high.data).max() < 1e-6

    def test_channel_count_mismatch(self):
        p = WaveletPair(low=_t64(np.zeros((2, 2, 2))),
                        high=_t64(np.zeros((5, 2, 2))))
        with pytest.raises(ContractViolation):
            iwt_haar(p)

    def test_spatial_mismatch(self):
        p = WaveletPair(low=_t64(np.zeros((2, 2, 2))),
                        high=_t64(np.zeros((6, 3, 2))))
        with pytest.raises(ContractViolation):
            iwt_haar(p)


    def test_iwt_peak_memory_is_the_output(self):
        # low and high, one 64-channel map together, are allocated before
        # tracing; the output (1 map) is the only array the IWT allocates
        g = rng(2)
        p = WaveletPair(Tensor(g.random((64, 128, 128), dtype=np.float32)),
                        Tensor(g.random((192, 128, 128), dtype=np.float32)))
        out, maps = peak_maps(lambda: iwt_haar(p), 256, 256)
        assert out.shape == (64, 256, 256)
        assert maps < 1.03


class TestGradients:
    def test_dwt_low_branch(self):
        x = rng(2).normal(size=(2, 4, 4))
        err = T.grad_check(
            lambda t: reduce_mean(T.sigmoid(dwt_haar(t).low)), x)
        assert err < 1e-6

    def test_dwt_high_branch(self):
        x = rng(3).normal(size=(2, 4, 4))
        err = T.grad_check(
            lambda t: reduce_mean(T.sigmoid(dwt_haar(t).high)), x)
        assert err < 1e-6

    def test_iwt_both_inputs(self):
        g = rng(4)
        low = g.normal(size=(2, 3, 3))
        high = g.normal(size=(6, 3, 3))
        err_low = T.grad_check(
            lambda t: reduce_mean(T.sigmoid(
                iwt_haar(WaveletPair(low=t, high=_t64(high))))), low)
        err_high = T.grad_check(
            lambda t: reduce_mean(T.sigmoid(
                iwt_haar(WaveletPair(low=_t64(low), high=t)))), high)
        assert err_low < 1e-6 and err_high < 1e-6

    def test_roundtrip_gradient_is_identity(self):
        tape = T.Tape()
        x = tape.leaf(rng(5).normal(size=(1, 4, 4)))
        tape.backward(reduce_mean(iwt_haar(dwt_haar(x))))
        np.testing.assert_allclose(tape.grad(x), np.full((1, 4, 4), 1 / 16),
                                   rtol=1e-10)
