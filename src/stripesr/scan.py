"""Token-ordering permutations for 2D grids.

Three scan families are supported: raster (global 1D), window-tiled, and
stripe (narrow vertical bands traversed row-major so consecutive tokens
include vertical neighbours). Each order is an explicit bijection between
sequence positions and flat grid indices, in four directional variants:
0 = base, 1 = reversal of 0, 2 = transposed scheme, 3 = reversal of 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from . import tensor as T
from .tensor import Tensor

KINDS = ("raster", "window", "stripe")


@dataclass(frozen=True)
class ScanOrder:
    h: int
    w: int
    perm: np.ndarray  # sequence position -> flat grid index
    inv: np.ndarray  # flat grid index -> sequence position
    kind: str
    param: int  # stripe length / window size; 0 for raster
    direction: int

    @property
    def size(self) -> int:
        return self.h * self.w


def _raster_base(h: int, w: int) -> np.ndarray:
    return np.arange(h * w, dtype=np.intp)


def _stripe_base(h: int, w: int, length: int) -> np.ndarray:
    flat = np.arange(h * w, dtype=np.intp)
    rows, cols = divmod(flat, w)
    return np.lexsort((cols, rows, cols // length)).astype(np.intp)


def _window_base(h: int, w: int, win: int) -> np.ndarray:
    flat = np.arange(h * w, dtype=np.intp)
    rows, cols = divmod(flat, w)
    return np.lexsort((cols, rows, cols // win, rows // win)).astype(np.intp)


def _directional(base, h: int, w: int, param: int, direction: int) -> np.ndarray:
    if direction in (0, 1):
        perm = base(h, w, param) if param else base(h, w)
    elif direction in (2, 3):
        # build on the transposed grid, then map positions back
        q = base(w, h, param) if param else base(w, h)
        perm = (q % h) * w + q // h
    else:
        raise ContractViolation(f"direction must be in 0..3, got {direction}")
    if direction in (1, 3):
        perm = perm[::-1]
    return np.ascontiguousarray(perm)


def _make(kind: str, h: int, w: int, param: int, direction: int, base) -> ScanOrder:
    if h < 1 or w < 1:
        raise ContractViolation(f"grid dims must be positive, got {h}x{w}")
    perm = _directional(base, h, w, param, direction)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=np.intp)
    # orders are cached and shared between callers
    perm.setflags(write=False)
    inv.setflags(write=False)
    return ScanOrder(h, w, perm, inv, kind, param, direction)


def raster_order(h: int, w: int, direction: int = 0) -> ScanOrder:
    return _make("raster", h, w, 0, direction, lambda hh, ww: _raster_base(hh, ww))


def stripe_order(h: int, w: int, length: int, direction: int = 0) -> ScanOrder:
    if length < 1:
        raise ContractViolation("stripe length must be >= 1")
    return _make("stripe", h, w, length, direction, _stripe_base)


def window_order(h: int, w: int, win: int, direction: int = 0) -> ScanOrder:
    if win < 1:
        raise ContractViolation("window size must be >= 1")
    return _make("window", h, w, win, direction, _window_base)


def make_order(kind: str, h: int, w: int, param: int, direction: int = 0) -> ScanOrder:
    if kind == "raster":
        return raster_order(h, w, direction)
    if kind == "stripe":
        return stripe_order(h, w, param, direction)
    if kind == "window":
        return window_order(h, w, param, direction)
    raise ContractViolation(f"unknown scan kind {kind!r}")


def count_vertical_transitions(order: ScanOrder) -> int:
    """Consecutive token pairs that are vertical neighbours on the grid."""
    a, b = order.perm[:-1], order.perm[1:]
    same_col = (a % order.w) == (b % order.w)
    adjacent = np.abs(a // order.w - b // order.w) == 1
    return int(np.count_nonzero(same_col & adjacent))


def gather_tokens(x: Tensor, order: ScanOrder) -> Tensor:
    """(C, H, W) image -> (C, T) token sequence along the scan order."""
    c, h, w = x.shape
    if (h, w) != (order.h, order.w):
        raise ContractViolation(
            f"gather_tokens: order is {order.h}x{order.w}, image is {h}x{w}"
        )
    flat = x.data.reshape(c, h * w)
    out = np.ascontiguousarray(flat[:, order.perm])

    def dfn(g):
        return np.ascontiguousarray(g[:, order.inv]).reshape(c, h, w)

    return T._record_unary(x, out, dfn)


def scatter_tokens(seq: Tensor, order: ScanOrder) -> Tensor:
    """(C, T) token sequence -> (C, H, W) image; exact inverse of gather."""
    c, t = seq.shape
    if t != order.size:
        raise ContractViolation(
            f"scatter_tokens: sequence length {t} != grid size {order.size}"
        )
    out = np.ascontiguousarray(seq.data[:, order.inv]).reshape(c, order.h, order.w)

    def dfn(g):
        return np.ascontiguousarray(g.reshape(c, t)[:, order.perm])

    return T._record_unary(seq, out, dfn)
