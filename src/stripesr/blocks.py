"""Composite blocks: VSSM, the soft gate, LFSE, HFSE and HLFD.

Each block comes as a pair: a `*_specs` function enumerating its parameters
as (path, shape, init-kind) triples, and a `*_forward` function consuming a
ParamView holding those tensors and the four scan orders of its stage
(`four_orders`). Paths follow the checkpoint convention
`<stage>.<level>.<block>.<param>` once the model prefixes them.

Head/Tail inside every block are 3x3 convolutions mapping the channel count
down/up by a factor of 8, clamped so the bottleneck never drops below 8
channels.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ContractViolation
from . import tensor as T
from . import ops
from .tensor import Tensor
from .s6 import S6Params, delta_rank, ss2d
from .scan import ScanOrder, make_order

CHANNEL_SCALING = 8


@lru_cache(maxsize=256)
def _cached_order(kind, h, w, param, direction):
    return make_order(kind, h, w, param, direction)


def four_orders(kind: str, param: int, h: int, w: int):
    """The four directional orders of one scan on an h x w grid."""
    return [_cached_order(kind, h, w, param, k) for k in range(4)]


class ParamView:
    """Dict of named Tensors seen through a dotted-path prefix."""

    def __init__(self, params: dict, prefix: str = ""):
        self.params = params
        self.prefix = prefix

    def __getitem__(self, name: str) -> Tensor:
        return self.params[self.prefix + name]

    def sub(self, name: str) -> "ParamView":
        return ParamView(self.params, self.prefix + name + ".")


def inner_channels(c: int) -> int:
    return max(c // CHANNEL_SCALING, CHANNEL_SCALING)


def _conv_specs(path, c_in, c_out, k, groups=1):
    return [
        (f"{path}.w", (c_out, c_in // groups, k, k), "conv"),
        (f"{path}.b", (c_out,), "zeros"),
    ]


def _ln_specs(path, c):
    return [(f"{path}.gamma", (c,), "ones"), (f"{path}.beta", (c,), "zeros")]


def _s6_specs(path, d, n):
    r = delta_rank(d)
    return [
        (f"{path}.a_log", (d, n), "a_log"),
        (f"{path}.d_skip", (d,), "ones"),
        (f"{path}.w_b", (d, n), "linear_rows"),
        (f"{path}.w_c", (d, n), "linear_rows"),
        (f"{path}.w_dt_down", (r, d), "linear"),
        (f"{path}.w_dt_up", (d, r), "linear"),
        (f"{path}.b_dt", (d,), "zeros"),
    ]


def _conv(x, pv, name, dilation=1):
    return ops.conv2d(x, pv[f"{name}.w"], pv[f"{name}.b"], dilation)


def _ln(x, pv, name):
    return ops.layernorm(x, pv[f"{name}.gamma"], pv[f"{name}.beta"])


def _s6_params(pv, name, k):
    p = pv.sub(f"{name}.{k}")
    return S6Params(
        a_log=p["a_log"], d_skip=p["d_skip"], w_b=p["w_b"], w_c=p["w_c"],
        w_dt_down=p["w_dt_down"], w_dt_up=p["w_dt_up"], b_dt=p["b_dt"],
    )


# ---------------------------------------------------------------- VSSM

def vssm_specs(c: int, n: int):
    d_inner = 2 * c
    specs = []
    specs += _ln_specs("ln_in", c)
    specs += _conv_specs("in_proj", c, d_inner, 1)
    specs += _conv_specs("dw", d_inner, d_inner, 3, groups=d_inner)
    for k in range(4):
        specs += _s6_specs(f"s6.{k}", d_inner, n)
    specs += _ln_specs("ln_out", d_inner)
    specs += _conv_specs("out_proj", d_inner, c, 1)
    return specs


def vssm_forward(x: Tensor, pv: ParamView, orders: list[ScanOrder]) -> Tensor:
    """LN -> expand x2 -> depthwise 3x3 -> SiLU -> 4-direction scan along
    `orders` -> LN -> SiLU gate from the expand branch -> contract ->
    residual."""
    t = _conv(_ln(x, pv, "ln_in"), pv, "in_proj")
    a = T.silu(_conv(t, pv, "dw"))
    params = [_s6_params(pv, "s6", k) for k in range(4)]
    y = ss2d(a, params, orders)
    y = _ln(y, pv, "ln_out")
    y = T.mul(y, T.silu(t))
    return T.add(_conv(y, pv, "out_proj"), x)


# ---------------------------------------------------------------- soft gate

def soft_gate(x1: Tensor, x21: Tensor, x22: Tensor, alpha: Tensor) -> Tensor:
    """Convex fusion of two gated products:
    w1 = e^a / (e^a + e^(1-a)) = logistic(2a - 1), w2 = 1 - w1."""
    if x1.shape != x21.shape or x1.shape != x22.shape:
        raise ContractViolation("soft_gate: inputs must share a shape")
    z = T.add(T.scale(alpha, 2.0), Tensor([-1.0], dtype=alpha.dtype))
    w1 = T.reshape(T.sigmoid(z), (1, 1, 1))
    w2 = T.reshape(T.sigmoid(T.neg(z)), (1, 1, 1))
    return T.add(T.mul(w1, T.mul(x21, x1)), T.mul(w2, T.mul(x22, x1)))


def gate_weights(alpha: float) -> tuple[float, float]:
    """Scalar (w1, w2) for a given alpha, same math as soft_gate."""
    z = 2.0 * alpha - 1.0
    return float(T.logistic(z)), float(T.logistic(-z))


# ---------------------------------------------------------------- LFSE

def lfse_specs(c: int, n: int):
    inner = inner_channels(c)
    hidden = ops.ca_bottleneck(inner)
    specs = []
    specs += _conv_specs("head", c, inner, 3)
    specs += [
        ("ca.w1", (hidden, inner), "linear"),
        ("ca.b1", (hidden,), "zeros"),
        ("ca.w2", (inner, hidden), "linear"),
        ("ca.b2", (inner,), "zeros"),
    ]
    for path, shape, kind in vssm_specs(inner, n):
        specs.append((f"vssm.{path}", shape, kind))
    specs += _conv_specs("tail", inner, c, 3)
    return specs


def lfse_forward(x: Tensor, pv: ParamView, orders: list[ScanOrder]) -> Tensor:
    """Channel-reduce, then gate a channel-attention branch against a VSSM
    branch (sigmoid each, Hadamard), residual to the reduced feature."""
    xp = _conv(x, pv, "head")
    br_ca = ops.channel_attention(xp, pv["ca.w1"], pv["ca.w2"], pv["ca.b1"], pv["ca.b2"])
    br_vssm = vssm_forward(xp, pv.sub("vssm"), orders)
    prod = T.mul(T.sigmoid(br_ca), T.sigmoid(br_vssm))
    return _conv(T.add(prod, xp), pv, "tail")


# ---------------------------------------------------------------- HFSE

def hfse_specs(c: int, n: int):
    inner = inner_channels(c)
    specs = []
    specs += _conv_specs("head", c, inner, 3)
    specs += _conv_specs("g_conv", inner, inner, 3)
    specs += _ln_specs("g_ln", inner)
    for path, shape, kind in vssm_specs(inner, n):
        specs.append((f"vssm.{path}", shape, kind))
    specs += _conv_specs("dw5", inner, inner, 5, groups=inner)
    specs += _conv_specs("dil1", inner, inner, 3)
    specs += _conv_specs("dil2", inner, inner, 3)
    specs.append(("alpha", (1,), "alpha"))
    specs += _conv_specs("tail", inner, c, 3)
    return specs


def hfse_forward(x: Tensor, pv: ParamView, orders: list[ScanOrder]) -> Tensor:
    """Global branch (conv -> LN -> VSSM) soft-gated against two dilated
    local branches read off a shared 5x5 depthwise feature."""
    xp = _conv(x, pv, "head")
    g = vssm_forward(_ln(_conv(xp, pv, "g_conv"), pv, "g_ln"), pv.sub("vssm"), orders)
    local = _conv(xp, pv, "dw5")
    x21 = _conv(local, pv, "dil1")
    x22 = _conv(local, pv, "dil2", 2)
    fused = soft_gate(g, x21, x22, pv["alpha"])
    return _conv(T.add(fused, xp), pv, "tail")


# ---------------------------------------------------------------- HLFD

def hlfd_specs(c: int, n: int):
    inner = inner_channels(c)
    if inner % 2:
        raise ContractViolation(f"hlfd: post-head channel count {inner} must be even")
    half = inner // 2
    specs = []
    specs += _conv_specs("head", c, inner, 3)
    for path, shape, kind in vssm_specs(half, n):
        specs.append((f"vssm.{path}", shape, kind))
    specs += _conv_specs("ds_dw", half, half, 3, groups=half)
    specs += _conv_specs("ds_pw", half, half, 1)
    specs += _conv_specs("fuse", inner, inner, 3)
    specs += _conv_specs("tail", inner, c, 3)
    return specs


def hlfd_forward(y: Tensor, pv: ParamView, orders: list[ScanOrder]) -> Tensor:
    """Split the reduced feature into a VSSM half and a depthwise-separable
    conv half, concat, fuse with a 3x3 conv, residual, channel-restore."""
    half = inner_channels(y.shape[0]) // 2
    yp = _conv(y, pv, "head")
    y1 = T.narrow(yp, 0, 0, half)
    y2 = T.narrow(yp, 0, half, half)
    y1 = vssm_forward(y1, pv.sub("vssm"), orders)
    y2 = _conv(_conv(y2, pv, "ds_dw"), pv, "ds_pw")
    fused = T.add(_conv(T.concat([y1, y2], axis=0), pv, "fuse"), yp)
    return _conv(fused, pv, "tail")
