"""Single-level 2D Haar analysis/synthesis with orthonormal (1/2) scaling.

Per non-overlapping 2x2 block (a b / c d):

    LL = (a+b+c+d)/2   LH = (a-b+c-d)/2
    HL = (a+b-c-d)/2   HH = (a-b-c+d)/2

The 4x4 mixing matrix is symmetric and involutory, so synthesis and both
backwards are the same mix between one phase split and one join. High bands
are concatenated along the channel axis as [LH | HL | HH]. The DWT records
low and high as two ops on its input; the tape sums their gradients.
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


def _phases(x):
    """The four strided 2x2 phase views (a, b, c, d) of a (C, H, W) array."""
    return x[:, 0::2, 0::2], x[:, 0::2, 1::2], x[:, 1::2, 0::2], x[:, 1::2, 1::2]


def _join(a, b, c, d):
    """Interleave four (C, h, w) phases into a fresh (C, 2h, 2w) array."""
    ch, h, w = a.shape
    out = np.empty((ch, 2 * h, 2 * w), dtype=a.dtype)
    for view, phase in zip(_phases(out), (a, b, c, d)):
        view[...] = phase
    return out


def dwt_haar(x: Tensor) -> WaveletPair:
    _, h, w = x.shape
    if h % 2 or w % 2:
        raise ContractViolation(f"dwt_haar requires even dims, got {h}x{w}")
    ll, lh, hl, hh = _haar_mix(*_phases(x.data))
    # LL is half the sum of the four phases, so each gets half its gradient
    low = T._record_unary(x, ll, lambda g: _join(*[g * 0.5] * 4))
    high = T._record_unary(x, np.concatenate([lh, hl, hh]),
                           lambda g: _join(*_haar_mix(0.0, *np.split(g, 3))))
    return WaveletPair(low, high)


def iwt_haar(p: WaveletPair) -> Tensor:
    c = p.low.shape[0]
    if p.high.shape[0] != 3 * c:
        raise ContractViolation(
            f"iwt_haar: high has {p.high.shape[0]} channels, expected {3 * c}"
        )
    if p.high.shape[1:] != p.low.shape[1:]:
        raise ContractViolation("iwt_haar: low/high spatial dims disagree")
    out = _join(*_haar_mix(p.low.data, *np.split(p.high.data, 3)))

    def backward(g):
        gll, glh, ghl, ghh = _haar_mix(*_phases(g))
        return gll, np.concatenate([glh, ghl, ghh])

    return T.record(out, (p.low, p.high), backward)
