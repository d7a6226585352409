"""Token-ordering permutations for 2D grids.

Three scan families are supported: raster (global 1D), window-tiled, and
stripe (narrow vertical bands traversed row-major so consecutive tokens
include vertical neighbours). Each order is an explicit bijection between
sequence positions and flat grid indices, in four directional variants:
0 = base, 1 = reversal of 0, 2 = transposed scheme, 3 = reversal of 2.
`gather_tokens` reads an image along K orders at once (cross-scan), and
`scatter_tokens`, its adjoint, merges K sequences back onto the grid.
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


def _gather(x: np.ndarray, orders) -> np.ndarray:
    """(C, H, W) array -> (K, C, T) array, row k read along order k."""
    flat = x.reshape(x.shape[0], -1)
    out = np.empty((len(orders), *flat.shape), dtype=x.dtype)
    for o, row in zip(orders, out):
        # a permutation is always in range; "clip" writes `row` unbuffered
        np.take(flat, o.perm, axis=1, out=row, mode="clip")
    return out


def _scatter(seqs: np.ndarray, orders) -> np.ndarray:
    """(K, C, T) array -> (C, H, W) array: sequence k put back on the grid
    along order k, the K images summed in k order. The adjoint of _gather."""
    out = np.take(seqs[0], orders[0].inv, axis=1)
    for o, s in zip(orders[1:], seqs[1:]):
        out += np.take(s, o.inv, axis=1)
    return out.reshape(-1, orders[0].h, orders[0].w)


def gather_tokens(x: Tensor, orders: list[ScanOrder]) -> Tensor:
    """Cross-scan: (C, H, W) image -> (K, C, T) token sequences, one per
    scan order."""
    if not orders or any((o.h, o.w) != x.shape[1:] for o in orders):
        raise ContractViolation(f"gather_tokens: need orders on the {x.shape[1:]} grid")
    return T._record_unary(x, _gather(x.data, orders), lambda g: _scatter(g, orders))


def scatter_tokens(seqs: Tensor, orders: list[ScanOrder]) -> Tensor:
    """Cross-merge: (K, C, T) sequences -> (C, H, W) image, the sum over k
    of sequence k put back along order k; the adjoint of gather_tokens."""
    k, _, t = seqs.shape
    grids = {(o.h, o.w) for o in orders}
    if k != len(orders) or len(grids) != 1 or t != orders[0].size:
        raise ContractViolation(
            f"scatter_tokens: {k} sequences of {t} tokens for orders on {grids}")
    return T._record_unary(seqs, _scatter(seqs.data, orders),
                           lambda g: _gather(g, orders))
