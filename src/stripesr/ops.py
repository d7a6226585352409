"""Neural-network operators on top of the tensor tape.

Convolution (grouped / dilated, stride 1, reflect "same" padding; one GEMM
per block of output rows forward, one per kernel tap backward), channel
layer norm, squeeze-excite channel attention, Keys bicubic upscaling,
AdamW and the L1 objective. Images are (C, H, W).
Each taped op is one `tensor.record` over all its inputs; its backward
closure returns one gradient per input, and the tape decides which it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ContractViolation, NumericError
from . import tensor as T
from .tensor import Tensor


@lru_cache(maxsize=256)
def _reflect_index(n: int, pad_lo: int, pad_hi: int) -> np.ndarray:
    """Source index of each padded position (cached, read-only)."""
    idx = np.arange(-pad_lo, n + pad_hi)
    # reflect without repeating the edge sample (numpy 'reflect' mode)
    period = max(2 * n - 2, 1)
    idx = np.abs(idx) % period
    idx = np.where(idx >= n, period - idx, idx)
    idx.setflags(write=False)
    return idx


def _pad_rows(x: np.ndarray, out: np.ndarray, lo: int, pt: int, pl: int,
              rows: np.ndarray, cols: np.ndarray) -> None:
    """Write padded rows lo.. of x (source indices `rows`, `cols`) into
    the (C, n, Wp) array `out` by slice copies, mirroring fold: the
    interior, each padded row, then each padded column."""
    h, wd = x.shape[1:]
    hi = lo + out.shape[1]
    i0 = min(max(lo, pt), hi)
    i1 = max(min(hi, pt + h), i0)
    out[:, i0 - lo : i1 - lo, pl : pl + wd] = x[:, i0 - pt : i1 - pt]
    for r in (*range(lo, i0), *range(i1, hi)):
        out[:, r - lo, pl : pl + wd] = x[:, rows[r]]
    for r in (*range(pl), *range(pl + wd, out.shape[2])):
        out[:, :, r] = out[:, :, pl + cols[r]]


def reflect_pad(x: np.ndarray, pt: int, pb: int, pl: int, pr: int):
    """Reflect-pad the two spatial axes of a (C, H, W) array.

    Returns the padded array and `fold`, which sums a gradient of the padded
    shape back onto (C, H, W)."""
    c, h, wd = x.shape
    rows = _reflect_index(h, pt, pb)
    cols = _reflect_index(wd, pl, pr)
    xp = np.empty((c, pt + h + pb, pl + wd + pr), x.dtype)
    _pad_rows(x, xp, 0, pt, pl, rows, cols)

    def fold(g):
        # each padded row, then column, adds onto the sample it reflects
        tmp = g[:, pt : pt + h].copy()
        for r in (*range(pt), *range(pt + h, g.shape[1])):
            tmp[:, rows[r]] += g[:, r]
        gx = tmp[:, :, pl : pl + wd].copy()
        for r in (*range(pl), *range(pl + wd, g.shape[2])):
            gx[:, :, cols[r]] += tmp[:, :, r]
        return gx

    return xp, fold


CONV_BLOCK_BYTES = 1 << 20  # size of the conv forward's column buffer and slab


def conv2d(x: Tensor, w: Tensor, b: Tensor | None, dilation: int = 1) -> Tensor:
    """Grouped dilated stride-1 cross-correlation with reflect "same"
    padding; x (C_in,H,W), w (C_out,C_in/g,kh,kw). The weight fixes the
    kernel and the group count g = C_in / w.shape[1].

    The forward reflect-pads a band of input rows at a time into one reused
    slab, then walks its blocks of whole output rows, about CONV_BLOCK_BYTES
    of columns each: it copies the block's kh*kw tap windows into one reused
    (g, kh*kw*C_in/g, rows*W) column buffer and runs one GEMM, batched over
    groups, straight into the block's rows of the output (the blocked im2col
    of Vasudevan, Anderson & Gregg 2017). A 1x1 conv is one GEMM on x.
    No padded image, full-size accumulator or patch copy is built. Backward
    pads x and runs one GEMM per tap (i, j) for each gradient, on the slice
    of the flat padded image at offset (i*Wp + j)*dilation."""
    c_in, h, wd = x.shape
    c_out, c_in_g, kh, kw = w.shape
    if min(w.shape) < 1 or c_in % c_in_g != 0 or c_out % (c_in // c_in_g) != 0:
        raise ContractViolation(
            f"conv2d: weight {w.shape} does not group {c_in} input channels"
        )
    g = c_in // c_in_g
    if b is not None and b.shape != (c_out,):
        raise ContractViolation("conv2d: bias must have shape (C_out,)")
    if dilation < 1:
        raise ContractViolation(f"conv2d: dilation must be >= 1, got {dilation}")

    ekh, ekw = (kh - 1) * dilation + 1, (kw - 1) * dilation + 1
    pt, pl = (ekh - 1) // 2, (ekw - 1) // 2
    pb, pr = ekh - 1 - pt, ekw - 1 - pl
    hp, wp = h + ekh - 1, wd + ekw - 1
    taps = [(i, j, (i * wp + j) * dilation) for i in range(kh) for j in range(kw)]
    wg = w.data.reshape(g, c_out // g, c_in_g, kh, kw)
    dtype = np.result_type(x.data, wg)
    k = kh * kw * c_in_g
    # column row t*C_in/g + c holds tap t of channel c, as wk's columns do
    wk = wg.transpose(0, 1, 3, 4, 2).reshape(g, c_out // g, k)
    out = np.empty((c_out, h, wd), dtype=x.dtype)
    og = out.reshape(g, c_out // g, h * wd)
    if kh == kw == 1:  # the columns are x itself
        np.matmul(wk, x.data.reshape(g, c_in_g, h * wd), out=og)
    else:
        rows = max(1, min(h, CONV_BLOCK_BYTES // (g * k * wd * dtype.itemsize)))
        # the slab pads the input of `span` output rows, whole row blocks
        # in at most CONV_BLOCK_BYTES unless one block needs more
        fit = CONV_BLOCK_BYTES // (c_in * wp * x.dtype.itemsize) - (ekh - 1)
        span = max(rows, fit // rows * rows)
        slab = np.empty((c_in, min(span, h) + ekh - 1, wp), x.dtype)
        cols = np.empty((g, k, rows * wd), dtype)
        row_src, col_src = _reflect_index(h, pt, pb), _reflect_index(wd, pl, pr)
        for s0 in range(0, h, span):
            n = min(span, h - s0)
            _pad_rows(x.data, slab[:, : n + ekh - 1], s0, pt, pl, row_src, col_src)
            sg = slab[:, : n + ekh - 1].reshape(g, c_in_g, n + ekh - 1, wp)
            for r0 in range(0, n, rows):
                r1 = min(r0 + rows, n)
                blk = cols[..., : (r1 - r0) * wd]
                taps_view = blk.reshape(g, kh * kw, c_in_g, r1 - r0, wd)
                for t, (i, j, _) in enumerate(taps):
                    taps_view[:, t] = sg[:, :, r0 + i * dilation : r1 + i * dilation,
                                         j * dilation : j * dilation + wd]
                np.matmul(wk, blk, out=og[..., (s0 + r0) * wd : (s0 + r1) * wd])
    if b is not None:
        out += b.data.reshape(c_out, 1, 1)
    m = h * wp - (ekw - 1)  # backward slices end before the last row's wrap-around

    def backward(gy):
        # only x is kept, not its padded copy
        xp, fold = reflect_pad(x.data, pt, pb, pl, pr)
        xf = xp.reshape(g, c_in_g, hp * wp)
        gy_ext = np.zeros((c_out, h, wp), gy.dtype)
        gy_ext[..., :wd] = gy
        gy_ext = gy_ext.reshape(g, c_out // g, h * wp)[..., :m]
        gw = np.empty(wg.shape, dtype=np.result_type(gy, xf))
        gxf = np.zeros(xf.shape, dtype=np.result_type(gy, wg))
        for i, j, o in taps:
            gw[..., i, j] = gy_ext @ xf[..., o : o + m].transpose(0, 2, 1)
            gxf[..., o : o + m] += wg[..., i, j].transpose(0, 2, 1) @ gy_ext
        gxp = gxf.reshape(c_in, hp, wp)
        return fold(gxp), gw.reshape(c_out, c_in_g, kh, kw), gy.sum(axis=(1, 2))

    return T.record(out, (x, w, b), backward)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the channel axis at every spatial position (eps 1e-5)."""
    c = x.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ContractViolation("layernorm: affine params must have shape (C,)")
    mu = x.data.mean(axis=0)
    var = x.data.var(axis=0)
    invstd = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x.data - mu) * invstd
    out = gamma.data[:, None, None] * xhat + beta.data[:, None, None]

    def backward(gy):
        dxhat = gy * gamma.data[:, None, None]
        m1 = dxhat.mean(axis=0)
        m2 = (dxhat * xhat).mean(axis=0)
        return (invstd * (dxhat - m1 - xhat * m2), (gy * xhat).sum(axis=(1, 2)),
                gy.sum(axis=(1, 2)))

    return T.record(out, (x, gamma, beta), backward)


def channel_attention(x: Tensor, w1: Tensor, w2: Tensor, b1: Tensor,
                      b2: Tensor) -> Tensor:
    """Squeeze-excite: pool -> C/r bottleneck -> ReLU -> C -> sigmoid -> rescale,
    one op; x's gradient is g * gate plus the pooled path spread over H*W."""
    c, h, wd = x.shape
    r = w1.shape[0]
    if (w1.shape, w2.shape, b1.shape, b2.shape) != ((r, c), (c, r), (r,), (c,)):
        raise ContractViolation(
            f"channel_attention: shapes {w1.shape}/{w2.shape}/{b1.shape}/{b2.shape}"
            f" do not fit C={c}")
    pooled = x.data.mean(axis=(1, 2)).reshape(c, 1)
    pre = w1.data @ pooled + b1.data.reshape(r, 1)
    hidden = np.where(pre > 0, pre, 0.0)
    gate = T.logistic(w2.data @ hidden + b2.data.reshape(c, 1))
    out = x.data * gate.reshape(c, 1, 1)

    def backward(g):
        g_gate = (g * x.data).sum(axis=(1, 2)).reshape(c, 1) * gate * (1.0 - gate)
        g_pre = (w2.data.T @ g_gate) * (pre > 0)
        gx = g * gate.reshape(c, 1, 1) + (w1.data.T @ g_pre).reshape(c, 1, 1) / (h * wd)
        return (gx, g_pre @ pooled.T, g_gate @ hidden.T, g_pre.reshape(r),
                g_gate.reshape(c))

    return T.record(out, (x, w1, w2, b1, b2), backward)


def ca_bottleneck(c: int) -> int:
    """Channel attention's bottleneck width: C/4, at least 1."""
    return max(c // 4, 1)


@lru_cache(maxsize=64)
def _keys_weights(n_in: int, n_out: int, scale: float, dtype) -> np.ndarray:
    """Dense (n_out, n_in) row-resampling matrix for the Keys cubic, a=-0.5
    (cached, read-only). Output row i reads the four source samples around
    (i + 0.5) / scale - 0.5; taps beyond the border are clamped onto the
    edge column, where they add up in tap order."""
    a = -0.5
    src = (np.arange(n_out) + 0.5) / scale - 0.5
    m = np.floor(src)[:, None] + np.arange(-1, 3)  # (n_out, 4) tap positions
    t = np.abs(src[:, None] - m)
    near = (a + 2) * t**3 - (a + 3) * t**2 + 1
    far = a * t**3 - 5 * a * t**2 + 8 * a * t - 4 * a
    wgt = np.where(t <= 1.0, near, np.where(t < 2.0, far, 0.0))
    mat = np.zeros((n_out, n_in), dtype=np.float64)
    cols = np.clip(m, 0, n_in - 1).astype(np.intp)
    np.add.at(mat, (np.arange(n_out)[:, None], cols), wgt)
    mat = mat.astype(dtype)
    mat.setflags(write=False)
    return mat


def bicubic_resize(x: Tensor, scale: int) -> Tensor:
    """Separable Keys-cubic upscale of each band by an integer `scale` >= 1;
    never tape-recorded."""
    if type(scale) is not int or scale < 1:
        raise ContractViolation(
            f"bicubic_resize: scale must be an int >= 1, got {scale!r}")
    _, h, w = x.shape
    wr = _keys_weights(h, h * scale, scale, x.dtype)
    wc = _keys_weights(w, w * scale, scale, x.dtype)
    out = np.einsum("oh,chw,pw->cop", wr, x.data, wc, optimize=True)
    return Tensor(np.ascontiguousarray(out, dtype=x.dtype))


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
ADAM_WEIGHT_DECAY = 1e-4


@dataclass
class OptState:
    """AdamW state of one run. Only `lr` is set per run; the moment decays,
    eps and the weight decay are the `ADAM_*` constants."""
    lr: float = 1e-4
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adamw_step(params: dict, grads: dict, state: OptState) -> None:
    """One decoupled-weight-decay Adam update, in place on `params`.

    Raises NumericError naming the first parameter, in `params` order, that
    its update made non-finite (numpy's overflow warning is replaced by
    this check)."""
    if not 0 < state.lr < np.inf:  # also rejects NaN
        raise ContractViolation(f"adamw_step: lr must be finite and > 0, got {state.lr}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ContractViolation(f"adamw_step: grad shape mismatch for {name}")
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p)
            state.m[name] = m
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        with np.errstate(over="ignore", invalid="ignore"):
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            p -= state.lr * (update + ADAM_WEIGHT_DECAY * p)
        if not T.all_finite(p):
            raise NumericError(f"adamw_step: the update made {name} non-finite")


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error."""
    if pred.shape != target.shape:
        raise ContractViolation(
            f"l1_loss: shape mismatch {pred.shape} vs {target.shape}"
        )
    diff = pred.data - target.data
    out = np.asarray(np.abs(diff).mean(), dtype=pred.dtype)

    def backward(g):
        sign = np.sign(diff) / diff.size
        return g * sign, -g * sign

    return T.record(out, (pred, target), backward)
