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

# (th, tw) tile of each kind for stripe length / window size p; a tile dim of
# h * w spans the whole grid side in either orientation
_TILES = {
    "stripe": lambda h, w, p: (h * w, p),
    "raster": lambda h, w, p: (h * w, h * w),
    "window": lambda h, w, p: (p, p),
}
KINDS = tuple(_TILES)  # the one list of scan kinds, in `--help` order


@dataclass(frozen=True)
class ScanOrder:
    h: int
    w: int
    perm: np.ndarray  # sequence position -> flat grid index
    inv: np.ndarray  # flat grid index -> sequence position

    @property
    def size(self) -> int:
        return self.h * self.w


def _tile_base(h: int, w: int, th: int, tw: int) -> np.ndarray:
    """Row-major over th x tw tiles, row-major within each tile: raster is
    one tile, a stripe a full-height tile as wide as the stripe, a window a
    square tile."""
    rows, cols = divmod(np.arange(h * w, dtype=np.intp), w)
    return np.lexsort((cols, rows, cols // tw, rows // th)).astype(np.intp)


def make_order(kind: str, h: int, w: int, param: int, direction: int = 0) -> ScanOrder:
    """Order of `kind` on an h x w grid; `param` (>= 1) is the stripe length
    or window size, and raster ignores it."""
    if kind not in KINDS:
        raise ContractViolation(f"unknown scan kind {kind!r}")
    if h < 1 or w < 1:
        raise ContractViolation(f"grid dims must be positive, got {h}x{w}")
    if param < 1:
        raise ContractViolation(f"scan param must be >= 1, got {param}")
    tile = _TILES[kind](h, w, param)
    if direction in (0, 1):
        perm = _tile_base(h, w, *tile)
    elif direction in (2, 3):
        # build on the transposed grid, then map positions back
        q = _tile_base(w, h, *tile)
        perm = (q % h) * w + q // h
    else:
        raise ContractViolation(f"direction must be in 0..3, got {direction}")
    if direction in (1, 3):
        perm = perm[::-1]
    perm = np.ascontiguousarray(perm)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=np.intp)
    # orders are cached and shared between callers
    perm.setflags(write=False)
    inv.setflags(write=False)
    return ScanOrder(h, w, perm, inv)


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
