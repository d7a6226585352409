"""Neural-network operators on top of the tensor tape.

Convolution (grouped / dilated, stride 1, reflect "same" padding), channel
layer norm, squeeze-excite channel attention, Keys bicubic resampling,
AdamW, and the L1 objective. All image tensors are channel-first (C, H, W).
Taped ops hand all their inputs to `tensor.record`, and their backward
closures return one gradient per input; the tape decides which it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractViolation
from . import tensor as T
from .tensor import Tensor


@dataclass(frozen=True)
class ConvSpec:
    kernel: tuple[int, int] = (3, 3)
    dilation: int = 1
    groups: int = 1

    def __post_init__(self):
        kh, kw = self.kernel
        if kh < 1 or kw < 1 or self.dilation < 1 or self.groups < 1:
            raise ContractViolation(f"invalid ConvSpec {self}")


def _reflect_index(n: int, pad_lo: int, pad_hi: int) -> np.ndarray:
    idx = np.arange(-pad_lo, n + pad_hi)
    # reflect without repeating the edge sample (numpy 'reflect' mode)
    period = max(2 * n - 2, 1)
    idx = np.abs(idx) % period
    return np.where(idx >= n, period - idx, idx)


def reflect_pad(x: np.ndarray, pt: int, pb: int, pl: int, pr: int):
    """Reflect-pad the two spatial axes of a (C, H, W) array.

    Returns the padded array and `fold`, which sums a gradient of the padded
    shape back onto (C, H, W)."""
    c, h, wd = x.shape
    rows = _reflect_index(h, pt, pb)
    cols = _reflect_index(wd, pl, pr)

    def fold(g):
        tmp = np.zeros((c, h, g.shape[2]), dtype=g.dtype)
        np.add.at(tmp, (slice(None), rows), g)
        gx = np.zeros((c, h, wd), dtype=g.dtype)
        np.add.at(gx, (Ellipsis, cols), tmp)
        return gx

    return x[:, rows[:, None], cols[None, :]], fold


def conv2d(x: Tensor, w: Tensor, b: Tensor | None, spec: ConvSpec) -> Tensor:
    """Grouped dilated stride-1 cross-correlation with reflect "same"
    padding; x (C_in,H,W), w (C_out,C_in/g,kh,kw)."""
    c_in, h, wd = x.shape
    c_out, c_in_g, kh, kw = w.shape
    g = spec.groups
    if c_in % g != 0 or c_out % g != 0 or c_in_g != c_in // g:
        raise ContractViolation(
            f"conv2d: channels ({c_in}->{c_out}) incompatible with groups={g}"
        )
    if (kh, kw) != spec.kernel:
        raise ContractViolation("conv2d: weight kernel dims disagree with spec")
    if b is not None and b.shape != (c_out,):
        raise ContractViolation("conv2d: bias must have shape (C_out,)")

    dil = spec.dilation
    ekh, ekw = (kh - 1) * dil + 1, (kw - 1) * dil + 1
    pt, pl = (ekh - 1) // 2, (ekw - 1) // 2
    xp, fold = reflect_pad(x.data, pt, ekh - 1 - pt, pl, ekw - 1 - pl)
    view = sliding_window_view(xp, (ekh, ekw), axis=(1, 2))
    patches = view[:, :, :, ::dil, ::dil]  # (C_in, H, W, kh, kw)

    pg = patches.reshape(g, c_in_g, h, wd, kh, kw)
    wg = w.data.reshape(g, c_out // g, c_in_g, kh, kw)
    out = np.einsum("gchwij,gocij->gohw", pg, wg, optimize=True)
    out = np.ascontiguousarray(out.reshape(c_out, h, wd), dtype=x.dtype)
    if b is not None:
        out = out + b.data[:, None, None]

    def backward(gy):
        # `pg` views the padded input, the only array kept for backward
        gyg = gy.reshape(g, c_out // g, h, wd)
        gw = np.einsum("gohw,gchwij->gocij", gyg, np.ascontiguousarray(pg),
                       optimize=True)
        gpatch = np.einsum("gohw,gocij->gchwij", gyg, wg, optimize=True)
        gpatch = gpatch.reshape(c_in, h, wd, kh, kw)
        gxp = np.zeros(xp.shape, dtype=gy.dtype)
        for i in range(kh):
            for j in range(kw):
                gxp[:, i * dil : i * dil + h, j * dil : j * dil + wd] += gpatch[..., i, j]
        return fold(gxp), gw.reshape(c_out, c_in_g, kh, kw), gy.sum(axis=(1, 2))

    return T.record(out, (x, w, b), backward)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the channel axis at every spatial position."""
    if eps <= 0:
        raise ContractViolation("layernorm: eps must be positive")
    c = x.shape[0]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ContractViolation("layernorm: affine params must have shape (C,)")
    mu = x.data.mean(axis=0)
    var = x.data.var(axis=0)
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * invstd
    out = gamma.data[:, None, None] * xhat + beta.data[:, None, None]

    def backward(gy):
        dxhat = gy * gamma.data[:, None, None]
        m1 = dxhat.mean(axis=0)
        m2 = (dxhat * xhat).mean(axis=0)
        return (invstd * (dxhat - m1 - xhat * m2), (gy * xhat).sum(axis=(1, 2)),
                gy.sum(axis=(1, 2)))

    return T.record(out, (x, gamma, beta), backward)


def channel_attention(
    x: Tensor,
    w1: Tensor,
    w2: Tensor,
    b1: Tensor | None = None,
    b2: Tensor | None = None,
) -> Tensor:
    """Squeeze-excite: pool -> C/r bottleneck -> ReLU -> C -> sigmoid -> rescale."""
    c = x.shape[0]
    if w1.shape[1] != c or w2.shape[0] != c or w2.shape[1] != w1.shape[0]:
        raise ContractViolation(
            f"channel_attention: weight shapes {w1.shape}/{w2.shape} do not fit C={c}"
        )
    pooled = T.reshape(T.reduce_mean(x, axes=(1, 2)), (c, 1))
    hidden = T.matmul(w1, pooled)
    if b1 is not None:
        hidden = T.add(hidden, T.reshape(b1, (w1.shape[0], 1)))
    hidden = T.relu(hidden)
    gate = T.matmul(w2, hidden)
    if b2 is not None:
        gate = T.add(gate, T.reshape(b2, (c, 1)))
    gate = T.sigmoid(gate)
    return T.mul(x, T.reshape(gate, (c, 1, 1)))


def ca_bottleneck(c: int, reduction: int = 4) -> int:
    return max(c // reduction, 1)


def _keys_weights(n_in: int, n_out: int, scale: float, dtype) -> np.ndarray:
    """Dense (n_out, n_in) row-resampling matrix for the Keys cubic, a=-0.5."""
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


def bicubic_resize(x: Tensor, scale: float) -> Tensor:
    """Separable Keys-cubic resize per band; never tape-recorded."""
    if scale <= 0:
        raise ContractViolation("bicubic_resize: scale must be positive")
    _, h, w = x.shape
    ho, wo = h * scale, w * scale
    if abs(ho - round(ho)) > 1e-9 or abs(wo - round(wo)) > 1e-9:
        raise ContractViolation(
            f"bicubic_resize: scale {scale} gives non-integral dims for {h}x{w}"
        )
    ho, wo = int(round(ho)), int(round(wo))
    if scale == 1.0:
        return Tensor(x.data.copy())
    wr = _keys_weights(h, ho, scale, x.dtype)
    wc = _keys_weights(w, wo, scale, x.dtype)
    out = np.einsum("oh,chw,pw->cop", wr, x.data, wc, optimize=True)
    return Tensor(np.ascontiguousarray(out, dtype=x.dtype))


@dataclass
class OptState:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adamw_step(params: dict, grads: dict, state: OptState) -> tuple[dict, OptState]:
    """One decoupled-weight-decay Adam update, in place on `params`."""
    if state.lr <= 0:
        raise ContractViolation("adamw_step: lr must be positive")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
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
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        p -= state.lr * (update + state.weight_decay * p)
    return params, state


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
