"""Single-level 2D Haar analysis/synthesis with orthonormal (1/2) scaling.

Per non-overlapping 2x2 block (a b / c d):

    LL = (a+b+c+d)/2   LH = (a-b+c-d)/2
    HL = (a+b-c-d)/2   HH = (a-b-c+d)/2

The 4x4 mixing matrix is symmetric and involutory, so analysis and
synthesis are one mix, written straight into the DWT's low and high arrays
or the IWT output's phase views. The IWT's backward is the analysis, the DWT
high half's is the synthesis; the low half's spreads g/2 over its 2x2 block.
High bands are stacked along the channel axis as [LH | HL | HH]. The DWT
records low and high as two ops on its input; the tape sums their gradients.
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


# how b, c and d enter LL, LH, HL and HH; a always enters with +
_TERMS = ((np.add, np.add, np.add), (np.subtract, np.add, np.subtract),
          (np.add, np.subtract, np.subtract), (np.subtract, np.subtract, np.add))


def _phases(x):
    """The four strided 2x2 phase views (a, b, c, d) of a (C, H, W) array."""
    return x[:, 0::2, 0::2], x[:, 0::2, 1::2], x[:, 1::2, 0::2], x[:, 1::2, 1::2]


def _mix(src, dst) -> None:
    """Write ((a +- b) +- c) +- d, times 1/2, for the four (C, h, w) arrays
    src = (a, b, c, d) straight into the four arrays `dst`."""
    a, b, c, d = src
    for out, (op_b, op_c, op_d) in zip(dst, _TERMS):
        op_b(a, b, out=out)
        op_c(out, c, out=out)
        op_d(out, d, out=out)
        out *= 0.5


def _analyse(x: np.ndarray):
    """(low, high) of an even (C, H, W) array."""
    ch, h, w = x.shape
    low, high = (np.empty((n, h // 2, w // 2), np.result_type(x, 0.5))
                 for n in (ch, 3 * ch))
    _mix(_phases(x), (low, *np.split(high, 3)))
    return low, high


def _synthesise(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The (C, 2h, 2w) array whose analysis is (low, high)."""
    ch, h, w = low.shape
    out = np.empty((ch, 2 * h, 2 * w), np.result_type(low, high, 0.5))
    _mix((low, *np.split(high, 3)), _phases(out))
    return out


def dwt_haar(x: Tensor) -> WaveletPair:
    _, h, w = x.shape
    if h % 2 or w % 2:
        raise ContractViolation(f"dwt_haar requires even dims, got {h}x{w}")
    ll, hi = _analyse(x.data)
    # LL is half the sum of the four phases, so each gets half its gradient
    low = T._record_unary(x, ll, lambda g: (g * 0.5).repeat(2, 1).repeat(2, 2))
    high = T._record_unary(
        x, hi, lambda g: _synthesise(np.zeros_like(g[: len(g) // 3]), g))
    return WaveletPair(low, high)


def iwt_haar(p: WaveletPair) -> Tensor:
    c = p.low.shape[0]
    if p.high.shape[0] != 3 * c:
        raise ContractViolation(
            f"iwt_haar: high has {p.high.shape[0]} channels, expected {3 * c}"
        )
    if p.high.shape[1:] != p.low.shape[1:]:
        raise ContractViolation("iwt_haar: low/high spatial dims disagree")
    out = _synthesise(p.low.data, p.high.data)
    return T.record(out, (p.low, p.high), _analyse)
