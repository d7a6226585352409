"""Shared fixtures and oracle helpers for the test suite.

Oracles here are deliberately naive (explicit loops, straight-line math) so
they are independent of the vectorized implementations they check.
"""

import json
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from stripesr import blocks, tensor as T
from stripesr.model import ModelConfig, _init_array


def rng(seed=0):
    return np.random.default_rng(seed)


def reduce_mean(a):
    """The mean of every entry of the Tensor `a`, as a 0-d Tensor: the
    scalar loss of the gradient tests."""
    return T.record(a.data.mean(), (a,), lambda g: (
        np.full(a.shape, g / a.size, dtype=a.dtype),))


def rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def init_param_dict(specs, seed=0, dtype=np.float64):
    g = np.random.default_rng(seed)
    return {name: _init_array(shape, kind, g).astype(dtype)
            for name, shape, kind in specs}


class KeyRecorder(dict):
    """A dict that records every key it is read with."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def whole_block(fwd):
    """`fwd` (lfse_forward, hfse_forward or hlfd_forward) as a model stage
    runs it: the block's head conv on x, then `fwd` on the head's output."""
    return lambda x, pv, orders: fwd(blocks.head(x, pv), pv, orders)


def absurd_shape_checkpoint(shape) -> bytes:
    """HSRW bytes with a valid config and one parameter that declares
    `shape` but stores no values."""
    config = json.dumps(asdict(ModelConfig(bands=4, scale=2))).encode()
    name = b"global.head.w"
    return (b"HSRW" + struct.pack("<II", 1, len(config)) + config
            + struct.pack("<II", 1, len(name)) + name
            + struct.pack(f"<I{len(shape)}I", len(shape), *shape))


ABSURD_SHAPES = [(2**31, 2**31), (2**31, 2**31, 2**31)]


def checkpoint_bytes(config: dict, params: dict) -> bytes:
    """HSRW bytes for a config dict and name -> array params, written field
    by field, so the config may be one that ModelConfig rejects."""
    cfg = json.dumps(config).encode()
    out = [b"HSRW", struct.pack("<II", 1, len(cfg)), cfg,
           struct.pack("<I", len(params))]
    for name, arr in params.items():
        nb = name.encode()
        out += [struct.pack("<I", len(nb)), nb,
                struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape),
                arr.astype("<f4").tobytes()]
    return b"".join(out)


def traced_peak(fn):
    """Call `fn()` with tracemalloc on; return its result and the peak
    bytes traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_retained(fn):
    """Call `fn()` with tracemalloc on; return its result and the bytes
    still traced once it returned, which its result keeps alive."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def peak_maps(fn, h, w):
    """Call `fn()` with tracemalloc on; return its result and the peak
    traced while it ran, in 64-channel float32 h x w maps (the model's
    feature maps at HR h x w)."""
    out, peak = traced_peak(fn)
    return out, peak / (64 * h * w * 4)


def conv2d_oracle(x, w, b, kernel, stride=1, dilation=1, groups=1,
                  padding="same-reflect"):
    """Direct 6-loop grouped/dilated 2D convolution (cross-correlation)."""
    c_in, h, wd = x.shape
    c_out = w.shape[0]
    kh, kw = kernel
    eh, ew = (kh - 1) * dilation, (kw - 1) * dilation
    if padding == "valid":
        xp = x
        ph = pw = 0
    else:
        ph, pw = eh // 2, ew // 2
        mode = "reflect" if padding == "same-reflect" else "constant"
        xp = np.pad(x, ((0, 0), (ph, eh - ph), (pw, ew - pw)), mode=mode)
    oh = (xp.shape[1] - eh - 1) // stride + 1
    ow = (xp.shape[2] - ew - 1) // stride + 1
    cig = c_in // groups
    cog = c_out // groups
    out = np.zeros((c_out, oh, ow), dtype=np.float64)
    for o in range(c_out):
        g = o // cog
        for i in range(oh):
            for j in range(ow):
                acc = float(b[o]) if b is not None else 0.0
                for c in range(cig):
                    for u in range(kh):
                        for v in range(kw):
                            acc += (
                                xp[g * cig + c,
                                   i * stride + u * dilation,
                                   j * stride + v * dilation]
                                * w[o, c, u, v]
                            )
                out[o, i, j] = acc
    return out


def keys_weights_oracle(n_in, n_out, scale, dtype):
    """Per-row, per-tap loop for the Keys-cubic (a=-0.5) resampling matrix:
    each tap adds onto its source column, clamped to the border."""
    a = -0.5
    mat = np.zeros((n_out, n_in), dtype=np.float64)
    for i in range(n_out):
        src = (i + 0.5) / scale - 0.5
        i0 = int(np.floor(src))
        for m in range(i0 - 1, i0 + 3):
            t = abs(src - m)
            if t <= 1.0:
                wgt = (a + 2) * t**3 - (a + 3) * t**2 + 1
            elif t < 2.0:
                wgt = a * t**3 - 5 * a * t**2 + 8 * a * t - 4 * a
            else:
                continue
            mat[i, min(max(m, 0), n_in - 1)] += wgt
    return mat.astype(dtype)


def s6_oracle(x, a_log, d_skip, w_b, w_c, w_dt_down, w_dt_up, b_dt):
    """Scalar-loop reference for the selective-scan recurrence."""
    d, t_len = x.shape
    n = a_log.shape[1]
    a = -np.exp(np.asarray(a_log, dtype=np.float64))
    h = np.zeros((d, n), dtype=np.float64)
    y = np.zeros((d, t_len), dtype=np.float64)
    for t in range(t_len):
        xt = x[:, t].astype(np.float64)
        delta = np.log1p(np.exp(w_dt_up @ (w_dt_down @ xt) + b_dt))
        b_t = w_b.T @ xt  # (n,), shared across channels
        c_t = w_c.T @ xt
        h = np.exp(delta[:, None] * a) * h + np.outer(delta * xt, b_t)
        y[:, t] = h @ c_t + d_skip * xt
    return y


def ssim_oracle(a, b, peak=1.0):
    """Per-window loop of uniform 8x8-window SSIM, averaged over windows
    and then over bands."""
    window = 8
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c1, c2 = (0.01 * peak) ** 2, (0.03 * peak) ** 2
    bands = []
    for c in range(a.shape[0]):
        vals = []
        for i in range(a.shape[1] - window + 1):
            for j in range(a.shape[2] - window + 1):
                wa = a[c, i : i + window, j : j + window]
                wb = b[c, i : i + window, j : j + window]
                mu_a, mu_b = wa.mean(), wb.mean()
                cov = ((wa - mu_a) * (wb - mu_b)).mean()
                vals.append((2 * mu_a * mu_b + c1) * (2 * cov + c2)
                            / ((mu_a**2 + mu_b**2 + c1)
                               * (wa.var() + wb.var() + c2)))
        bands.append(np.mean(vals))
    return float(np.mean(bands))


@pytest.fixture
def tmp_cube_path(tmp_path):
    return str(tmp_path / "cube.hsc")
