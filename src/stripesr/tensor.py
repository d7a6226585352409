"""Dense tensors with a reverse-mode autodiff tape.

Tensors wrap contiguous numpy arrays (float32 or float64). Operations are
free functions that hand their output, all their inputs and a backward
closure to `record`. When no input is attached to a tape the result is a
plain Tensor. Otherwise the tape records every input; inputs that are None
or off the tape get no parent id. The closure returns one gradient per
input, and backward walks the tape in reverse, accumulating the gradients of
inputs that have a parent id and dropping the rest. The operands of `add`
and `mul` must share a shape: nothing on the tape broadcasts.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation


class Tensor:
    """A dense N-d array, optionally attached to a Tape node."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, dtype=None, tape=None, node_id=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        elif dtype is None and not isinstance(data, (np.ndarray, np.generic)):
            arr = arr.astype(np.float32)  # lists/scalars default to f32
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # preserves 0-d shape when already contiguous
        self.data = arr
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractViolation(
                f"item() requires a single element, got shape {self.data.shape}"
            )
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        tag = "" if self.node_id is None else f", node={self.node_id}"
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}{tag})"


class _Node:
    __slots__ = ("parent_ids", "backward")

    def __init__(self, parent_ids, backward):
        self.parent_ids = parent_ids
        self.backward = backward


class Tape:
    """Append-only record of ops; single-writer per forward/backward pass."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.grads: dict[int, np.ndarray] = {}
        self.spent = False  # backward has run and freed the closures

    def leaf(self, data) -> Tensor:
        t = Tensor(data)
        nid = len(self.nodes)
        self.nodes.append(_Node((), None))
        t.tape = self
        t.node_id = nid
        return t

    def record(self, out_data, inputs, backward) -> Tensor:
        """Register one op output over `inputs` (Tensors or None).

        `backward(g)` returns one gradient per input. An input that is None
        or off the tape gets parent id None, and its gradient is dropped."""
        nid = len(self.nodes)
        pids = tuple(None if t is None else t.node_id for t in inputs)
        self.nodes.append(_Node(pids, backward))
        return Tensor(out_data, tape=self, node_id=nid)

    def backward(self, loss: Tensor) -> None:
        """Accumulate grads for every leaf reachable from a scalar loss.

        Runs once per tape: it drops each closure and each non-leaf gradient
        as it passes, so the tape frees the forward's tensors."""
        if loss.tape is not self or loss.node_id is None:
            raise ContractViolation("loss is not attached to this tape")
        if loss.size != 1:
            raise ContractViolation("backward requires a scalar loss")
        if self.spent:
            raise ContractViolation("backward already ran on this tape")
        self.spent = True
        self.grads = {loss.node_id: np.ones_like(loss.data)}
        for nid in range(len(self.nodes) - 1, -1, -1):
            node = self.nodes[nid]
            fn, node.backward = node.backward, None
            if fn is None:
                continue  # a leaf keeps its gradient
            g = self.grads.pop(nid, None)
            if g is None:
                continue
            for pid, pg in zip(node.parent_ids, fn(g)):
                if pid is None:
                    continue
                acc = self.grads.get(pid)
                self.grads[pid] = pg if acc is None else acc + pg

    def grad(self, t: Tensor) -> np.ndarray:
        if t.tape is not self or t.node_id is None:
            raise ContractViolation("tensor is not attached to this tape")
        g = self.grads.get(t.node_id)
        # a leaf the loss never touched has an identically-zero gradient
        return np.zeros_like(t.data) if g is None else g


def _find_tape(*tensors):
    tape = None
    for t in tensors:
        if t is not None and t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ContractViolation("inputs attached to different tapes")
            tape = t.tape
    return tape


def record(out, inputs, backward) -> Tensor:
    """Wrap an op output; record it when any of `inputs` is on a tape."""
    tape = _find_tape(*inputs)
    if tape is None:
        return Tensor(out)
    return tape.record(out, inputs, backward)


def all_finite(a) -> bool:
    """Whether every value of the numpy array `a` is finite. min and max
    propagate NaN and reach +-inf, so no mask is built."""
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def check_nbytes(shape) -> None:
    """Raise MemoryError naming `shape` if its array of 8-byte items (float64,
    intp) would span more bytes than numpy can index (numpy: ValueError)."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise MemoryError(
            f"an array of shape {tuple(shape)} exceeds the address space")


def logistic(x):
    """Elementwise 1 / (1 + exp(-x)) on numpy values, in x's dtype.

    With z = exp(-|x|) in (0, 1], this is 1 / (1 + z) for x >= 0 and
    z / (1 + z) below, so nothing overflows for large |x| and the result
    stays in [0, 1]. (0.5 * tanh(x / 2) + 0.5 is faster but loses all
    relative accuracy in the negative tail.)"""
    z = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, z)
    z += 1.0
    out /= z
    return out


def softplus(x, out=None, scratch=None):
    """Elementwise log(1 + exp(x)) on numpy values, in x's dtype, as
    max(x, 0) + log1p(exp(-|x|)), which never overflows.

    `out` may be x itself; `scratch`, an array of x's shape and dtype, holds
    the log1p term, so a caller that passes both allocates nothing."""
    z = np.abs(x, out=scratch)
    np.negative(z, out=z)
    np.exp(z, out=z)
    np.log1p(z, out=z)
    out = np.maximum(x, 0.0, out=out)
    out += z
    return out


def _record_unary(a, out, dfn):
    return record(out, (a,), lambda g: (dfn(g),))


def _check_same_shape(a: Tensor, b: Tensor, op: str):
    if a.shape != b.shape:
        raise ContractViolation(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return record(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    return record(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _record_unary(a, a.data * c, lambda g: g * c)


def sigmoid(a: Tensor) -> Tensor:
    out = logistic(a.data)
    return _record_unary(a, out, lambda g: g * out * (1.0 - out))


def silu(a: Tensor) -> Tensor:
    s = logistic(a.data)
    out = a.data * s
    return _record_unary(a, out, lambda g: g * (s + out * (1.0 - s)))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return record(out, tensors, lambda g: np.split(g, splits, axis=axis))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice `length` entries from `start` along `axis`."""
    if start < 0 or start + length > a.shape[axis]:
        raise ContractViolation("narrow: slice out of range")
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = np.ascontiguousarray(a.data[idx])

    def dfn(g):
        full = np.zeros(a.shape, dtype=a.dtype)
        full[idx] = g
        return full

    return _record_unary(a, out, dfn)


def grad_check(f, x, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` maps a Tensor to a scalar Tensor and must be evaluable with or
    without a tape. `x` is promoted to float64.
    """
    x = np.asarray(x, dtype=np.float64)
    tape = Tape()
    xt = tape.leaf(x)
    y = f(xt)
    if y.size != 1:
        raise ContractViolation("grad_check requires a scalar-valued function")
    tape.backward(y)
    analytic = tape.grad(xt)

    numeric = np.zeros_like(x)
    flat = x.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(Tensor(x.copy(), dtype=np.float64)).item()
        flat[i] = orig - eps
        lo = f(Tensor(x.copy(), dtype=np.float64)).item()
        flat[i] = orig
        nflat[i] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
