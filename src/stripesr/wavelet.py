"""Single-level 2D Haar analysis/synthesis with orthonormal (1/2) scaling.

Per non-overlapping 2x2 block (a b / c d):

    LL = (a+b+c+d)/2   LH = (a-b+c-d)/2
    HL = (a+b-c-d)/2   HH = (a-b-c+d)/2

The 4x4 mixing matrix is symmetric and involutory, so synthesis applies the
same combination to (LL, LH, HL, HH). High bands are concatenated along the
channel axis as [LH | HL | HH].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from . import tensor as T
from .tensor import Tensor


@dataclass
class WaveletPair:
    low: Tensor  # (C, H/2, W/2)
    high: Tensor  # (3C, H/2, W/2), [LH | HL | HH]


def _haar_mix(a, b, c, d):
    return (
        (a + b + c + d) * 0.5,
        (a - b + c - d) * 0.5,
        (a + b - c - d) * 0.5,
        (a - b - c + d) * 0.5,
    )


def dwt_haar(x: Tensor) -> WaveletPair:
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ContractViolation(f"dwt_haar requires even dims, got {h}x{w}")
    xa = x.data[:, 0::2, 0::2]
    xb = x.data[:, 0::2, 1::2]
    xc = x.data[:, 1::2, 0::2]
    xd = x.data[:, 1::2, 1::2]
    ll, lh, hl, hh = _haar_mix(xa, xb, xc, xd)
    out = np.concatenate([ll, lh, hl, hh], axis=0)

    def dfn(g):
        ga, gb, gc, gd = _haar_mix(g[:c], g[c : 2 * c], g[2 * c : 3 * c], g[3 * c :])
        gx = np.empty_like(x.data, dtype=g.dtype)
        gx[:, 0::2, 0::2] = ga
        gx[:, 0::2, 1::2] = gb
        gx[:, 1::2, 0::2] = gc
        gx[:, 1::2, 1::2] = gd
        return gx

    stacked = T._record_unary(x, out, dfn)
    return WaveletPair(
        low=T.narrow(stacked, 0, 0, c),
        high=T.narrow(stacked, 0, c, 3 * c),
    )


def iwt_haar(p: WaveletPair) -> Tensor:
    c = p.low.shape[0]
    if p.high.shape[0] != 3 * c:
        raise ContractViolation(
            f"iwt_haar: high has {p.high.shape[0]} channels, expected {3 * c}"
        )
    if p.high.shape[1:] != p.low.shape[1:]:
        raise ContractViolation("iwt_haar: low/high spatial dims disagree")
    h2, w2 = p.low.shape[1:]
    ll = p.low.data
    lh = p.high.data[:c]
    hl = p.high.data[c : 2 * c]
    hh = p.high.data[2 * c :]
    xa, xb, xc, xd = _haar_mix(ll, lh, hl, hh)
    out = np.empty((c, 2 * h2, 2 * w2), dtype=ll.dtype)
    out[:, 0::2, 0::2] = xa
    out[:, 0::2, 1::2] = xb
    out[:, 1::2, 0::2] = xc
    out[:, 1::2, 1::2] = xd

    def backward(g):
        gll, glh, ghl, ghh = _haar_mix(
            g[:, 0::2, 0::2], g[:, 0::2, 1::2], g[:, 1::2, 0::2], g[:, 1::2, 1::2]
        )
        return gll, np.concatenate([glh, ghl, ghh], axis=0)

    return T.record(out, (p.low, p.high), backward)
