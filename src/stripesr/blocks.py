"""Composite blocks: VSSM, the soft gate, LFSE, HFSE and HLFD.

Each block comes as a pair: a `*_specs` function enumerating its parameters
as (path, shape, init-kind) triples, and a `*_forward` function consuming a
ParamView holding those tensors and the four scan orders of its stage
(`four_orders`). Paths follow the checkpoint convention
`<stage>.<level>.<block>.<param>` once the model prefixes them.

LFSE, HFSE and HLFD open with a 3x3 `head` conv mapping C channels down by 8
(to at least 8) and close with a 3x3 `tail` conv mapping them back up. The
caller runs `head`, so it can drop the block's input; a whole block is
`fwd(head(x, pv), pv, orders)`. A block's specs name its parameters
relative to the block; `nest` puts them under the block's path. A VSSM
holds four S6 heads, `s6.<k>.<field>`, shaped as `s6.head_specs` lists.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ContractViolation
from . import tensor as T
from . import ops
from .tensor import Tensor
from .s6 import S6Params, head_specs, ss2d
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


def nest(prefix: str, specs):
    """`specs` with each path put under `prefix`, in the same order."""
    return [(f"{prefix}.{path}", shape, kind) for path, shape, kind in specs]


def inner_channels(c: int) -> int:
    return max(c // CHANNEL_SCALING, CHANNEL_SCALING)


def _conv_specs(path, c_in, c_out, k, groups=1):
    return [
        (f"{path}.w", (c_out, c_in // groups, k, k), "fan_in"),
        (f"{path}.b", (c_out,), "zeros"),
    ]


def _ln_specs(path, c):
    return [(f"{path}.gamma", (c,), "ones"), (f"{path}.beta", (c,), "zeros")]


def _conv(x, pv, name, dilation=1):
    return ops.conv2d(x, pv[f"{name}.w"], pv[f"{name}.b"], dilation)


def head(x: Tensor, pv: ParamView) -> Tensor:
    """An LFSE, HFSE or HLFD block's channel-reducing head conv."""
    return _conv(x, pv, "head")


def _ln(x, pv, name):
    return ops.layernorm(x, pv[f"{name}.gamma"], pv[f"{name}.beta"])


# ---------------------------------------------------------------- VSSM

def vssm_specs(c: int, n: int):
    d_inner = 2 * c
    specs = _ln_specs("ln_in", c)
    specs += _conv_specs("in_proj", c, d_inner, 1)
    specs += _conv_specs("dw", d_inner, d_inner, 3, groups=d_inner)
    for k in range(4):
        specs += nest(f"s6.{k}", head_specs(d_inner, n))
    specs += _ln_specs("ln_out", d_inner)
    specs += _conv_specs("out_proj", d_inner, c, 1)
    return specs


def vssm_forward(x: Tensor, pv: ParamView, orders: list[ScanOrder]) -> Tensor:
    """LN -> expand x2 -> depthwise 3x3 -> SiLU -> 4-direction scan along
    `orders` -> LN -> SiLU gate from the expand branch -> contract ->
    residual."""
    t = _conv(_ln(x, pv, "ln_in"), pv, "in_proj")
    a = T.silu(_conv(t, pv, "dw"))
    heads = [S6Params(*(pv[f"s6.{k}.{f}"] for f in S6Params._fields))
             for k in range(4)]
    y = ss2d(a, heads, orders)
    y = _ln(y, pv, "ln_out")
    y = T.mul(y, T.silu(t))
    return T.add(_conv(y, pv, "out_proj"), x)


# ---------------------------------------------------------------- soft gate

def _gate_pair(alpha):
    """w1 = e^a / (e^a + e^(1-a)) = logistic(2a - 1) and w2 = 1 - w1."""
    z = 2.0 * alpha - 1.0
    return T.logistic(z), T.logistic(-z)


def soft_gate(x1: Tensor, x21: Tensor, x22: Tensor, alpha: Tensor) -> Tensor:
    """Convex fusion of two gated products, w1 * x21 * x1 + w2 * x22 * x1,
    recorded as one op. Since dw1/da = 2 * w1 * w2 = -dw2/da, alpha's
    gradient is 2 * w1 * w2 * sum(g * (x21 * x1 - x22 * x1))."""
    if x1.shape != x21.shape or x1.shape != x22.shape or alpha.shape != (1,):
        raise ContractViolation(
            "soft_gate: x1, x21 and x22 must share a shape, and alpha must be (1,)")
    w1, w2 = _gate_pair(alpha.data)
    out = w1 * (x21.data * x1.data) + w2 * (x22.data * x1.data)

    def backward(g):
        a, b, c = x1.data, x21.data, x22.data
        return (g * (w1 * b + w2 * c), g * w1 * a, g * w2 * a,
                2.0 * w1 * w2 * (g * (b * a - c * a)).sum())

    return T.record(out, (x1, x21, x22, alpha), backward)


def gate_weights(alpha: float) -> tuple[float, float]:
    """Scalar (w1, w2) for a given alpha, same math as soft_gate."""
    return tuple(float(w) for w in _gate_pair(alpha))


# ---------------------------------------------------------------- LFSE

def lfse_specs(c: int, n: int):
    inner = inner_channels(c)
    hidden = ops.ca_bottleneck(inner)
    specs = _conv_specs("head", c, inner, 3)
    specs += [
        ("ca.w1", (hidden, inner), "fan_in"),
        ("ca.b1", (hidden,), "zeros"),
        ("ca.w2", (inner, hidden), "fan_in"),
        ("ca.b2", (inner,), "zeros"),
    ]
    specs += nest("vssm", vssm_specs(inner, n))
    specs += _conv_specs("tail", inner, c, 3)
    return specs


def lfse_forward(xp: Tensor, pv: ParamView, orders: list[ScanOrder]) -> Tensor:
    """On the head's output `xp`: gate a channel-attention branch against a
    VSSM branch (sigmoid each, Hadamard), residual to the reduced feature,
    channel-restore."""
    br_ca = ops.channel_attention(xp, pv["ca.w1"], pv["ca.w2"], pv["ca.b1"], pv["ca.b2"])
    br_vssm = vssm_forward(xp, pv.sub("vssm"), orders)
    prod = T.mul(T.sigmoid(br_ca), T.sigmoid(br_vssm))
    return _conv(T.add(prod, xp), pv, "tail")


# ---------------------------------------------------------------- HFSE

def hfse_specs(c: int, n: int):
    inner = inner_channels(c)
    specs = _conv_specs("head", c, inner, 3)
    specs += _conv_specs("g_conv", inner, inner, 3)
    specs += _ln_specs("g_ln", inner)
    specs += nest("vssm", vssm_specs(inner, n))
    specs += _conv_specs("dw5", inner, inner, 5, groups=inner)
    specs += _conv_specs("dil1", inner, inner, 3)
    specs += _conv_specs("dil2", inner, inner, 3)
    specs.append(("alpha", (1,), "alpha"))
    specs += _conv_specs("tail", inner, c, 3)
    return specs


def hfse_forward(xp: Tensor, pv: ParamView, orders: list[ScanOrder]) -> Tensor:
    """On the head's output `xp`: a global branch (conv -> LN -> VSSM)
    soft-gated against two dilated local branches read off a shared 5x5
    depthwise feature, residual, channel-restore."""
    g = vssm_forward(_ln(_conv(xp, pv, "g_conv"), pv, "g_ln"), pv.sub("vssm"), orders)
    local = _conv(xp, pv, "dw5")
    x21 = _conv(local, pv, "dil1")
    x22 = _conv(local, pv, "dil2", 2)
    fused = soft_gate(g, x21, x22, pv["alpha"])
    return _conv(T.add(fused, xp), pv, "tail")


# ---------------------------------------------------------------- HLFD

def hlfd_specs(c: int, n: int):
    inner = inner_channels(c)
    half = inner // 2
    specs = _conv_specs("head", c, inner, 3)
    specs += nest("vssm", vssm_specs(half, n))
    specs += _conv_specs("ds_dw", half, half, 3, groups=half)
    specs += _conv_specs("ds_pw", half, half, 1)
    specs += _conv_specs("fuse", inner, inner, 3)
    specs += _conv_specs("tail", inner, c, 3)
    return specs


def hlfd_forward(yp: Tensor, pv: ParamView, orders: list[ScanOrder]) -> Tensor:
    """On the head's output `yp`: split it into a VSSM half and a
    depthwise-separable conv half, concat, fuse with a 3x3 conv, residual,
    channel-restore."""
    half = yp.shape[0] // 2
    y1 = T.narrow(yp, 0, 0, half)
    y2 = T.narrow(yp, 0, half, half)
    y1 = vssm_forward(y1, pv.sub("vssm"), orders)
    y2 = _conv(_conv(y2, pv, "ds_dw"), pv, "ds_pw")
    fused = T.add(_conv(T.concat([y1, y2], axis=0), pv, "fuse"), yp)
    return _conv(fused, pv, "tail")
