"""Input-dependent state-space recurrence (S6) and its 2D four-direction wrapper.

The recurrence per channel d and state n over a token sequence x_t:

    delta_t = softplus(W_up @ (W_down @ x_t) + b)          (per-channel step)
    Abar_t  = exp(delta_t * A),  A = -exp(A_log) < 0       (zero-order hold)
    h_t     = Abar_t * h_{t-1} + (delta_t * x_t) outer B_t (Euler for B)
    y_t     = <C_t, h_t> + D_skip * x_t

B_t and C_t are linear projections of x_t shared across channels. One
sequential scan with a fused hand-written backward serves every caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericError
from . import tensor as T
from .tensor import Tensor
from .scan import ScanOrder, gather_tokens, scatter_tokens


@dataclass
class S6Params:
    """One selective-scan head. d = channel dim, n = state dim, r = delta rank."""

    a_log: Tensor  # (d, n); A = -exp(a_log)
    d_skip: Tensor  # (d,)
    w_b: Tensor  # (d, n)
    w_c: Tensor  # (d, n)
    w_dt_down: Tensor  # (r, d) bottleneck in
    w_dt_up: Tensor  # (d, r) bottleneck out
    b_dt: Tensor  # (d,)

    def tensors(self) -> tuple[Tensor, ...]:
        """The seven parameter tensors, in field order."""
        return (self.a_log, self.d_skip, self.w_b, self.w_c,
                self.w_dt_down, self.w_dt_up, self.b_dt)

    @property
    def d(self) -> int:
        return self.a_log.shape[0]

    @property
    def n(self) -> int:
        return self.a_log.shape[1]

    def validate(self):
        d, n = self.a_log.shape
        r = self.w_dt_down.shape[0]
        ok = (
            self.d_skip.shape == (d,)
            and self.w_b.shape == (d, n)
            and self.w_c.shape == (d, n)
            and self.w_dt_down.shape == (r, d)
            and self.w_dt_up.shape == (d, r)
            and self.b_dt.shape == (d,)
        )
        if not ok:
            raise ContractViolation("S6Params shapes are inconsistent")


def delta_rank(d: int) -> int:
    return max(d // 16, 1)


def _precompute(x, a, w_b, w_c, w_dn, w_up, b_dt):
    """Per-token quantities for a (B, d, T) batch of sequences."""
    code = np.einsum("brd,bdt->brt", w_dn, x)
    raw = np.einsum("bdr,brt->bdt", w_up, code) + b_dt[:, :, None]
    sig = T.logistic(raw)
    delta = np.logaddexp(0.0, raw)
    b_t = np.einsum("bdn,bdt->bnt", w_b, x)
    c_t = np.einsum("bdn,bdt->bnt", w_c, x)
    # time-major decay for cheap per-step slicing
    abar = np.exp(delta.transpose(0, 2, 1)[:, :, :, None] * a[:, None, :, :])
    dbx = delta * x
    return code, sig, delta, b_t, c_t, abar, dbx


def _scan_forward(x, a, d_skip, b_t, c_t, abar, dbx, keep_states):
    nb, d, t = x.shape
    n = a.shape[-1]
    h = np.zeros((nb, d, n), dtype=x.dtype)
    y = np.empty_like(x)
    hs = np.empty((nb, t, d, n), dtype=x.dtype) if keep_states else None
    for i in range(t):
        h = abar[:, i] * h + dbx[:, :, i, None] * b_t[:, None, :, i]
        if keep_states:
            hs[:, i] = h
        y[:, :, i] = np.einsum("bdn,bn->bd", h, c_t[:, :, i])
    y += d_skip[:, :, None] * x
    return y, hs


def _s6_core(seq: Tensor, params: list[S6Params]) -> Tensor:
    """Batched fused scan: seq (B, d, T), one S6Params per batch entry."""
    nb, d, t = seq.shape
    for p in params:
        p.validate()
        if p.d != d:
            raise ContractViolation(f"S6Params d={p.d} does not match sequence d={d}")
    if len(params) != nb:
        raise ContractViolation("one S6Params required per batch entry")

    fields = [p.tensors() for p in params]
    a_log, d_skip, w_b, w_c, w_dn, w_up, b_dt = (
        np.stack([f.data for f in col]) for col in zip(*fields)
    )

    x = seq.data
    a = -np.exp(a_log)
    code, sig, delta, b_t, c_t, abar, dbx = _precompute(
        x, a, w_b, w_c, w_dn, w_up, b_dt
    )

    # a tensor shared by several entries is listed once per entry; the tape
    # sums its per-entry gradients
    inputs = (seq, *(f for fs in fields for f in fs))
    keep_states = T._find_tape(*inputs) is not None
    y, hs = _scan_forward(x, a, d_skip, b_t, c_t, abar, dbx, keep_states)
    if not np.all(np.isfinite(y)):
        raise NumericError("s6 scan produced non-finite values")

    def backward(gy):
        gh = np.zeros_like(hs[:, 0])
        gx = gy * d_skip[:, :, None]
        g_dskip = np.einsum("bdt,bdt->bd", gy, x)
        g_ct = np.empty_like(c_t)
        g_bt = np.empty_like(b_t)
        g_delta = np.zeros_like(delta)
        g_a = np.zeros_like(a)
        for i in range(t - 1, -1, -1):
            g_ct[:, :, i] = np.einsum("bdn,bd->bn", hs[:, i], gy[:, :, i])
            gh += gy[:, :, i, None] * c_t[:, None, :, i]
            h_prev = hs[:, i - 1] if i > 0 else np.zeros_like(gh)
            g_abar = gh * h_prev
            ga_full = g_abar * abar[:, i]
            g_delta[:, :, i] = np.einsum("bdn,bdn->bd", ga_full, a)
            g_a += ga_full * delta[:, :, i, None]
            g_dbx = np.einsum("bdn,bn->bd", gh, b_t[:, :, i])
            g_bt[:, :, i] = np.einsum("bdn,bd->bn", gh, dbx[:, :, i])
            g_delta[:, :, i] += g_dbx * x[:, :, i]
            gx[:, :, i] += g_dbx * delta[:, :, i]
            gh = gh * abar[:, i]
        g_raw = g_delta * sig
        g_b_dt = g_raw.sum(axis=2)
        g_w_up = np.einsum("bdt,brt->bdr", g_raw, code)
        g_code = np.einsum("bdr,bdt->brt", w_up, g_raw)
        g_w_dn = np.einsum("brt,bdt->brd", g_code, x)
        gx += np.einsum("brd,brt->bdt", w_dn, g_code)
        g_w_b = np.einsum("bnt,bdt->bdn", g_bt, x)
        gx += np.einsum("bdn,bnt->bdt", w_b, g_bt)
        g_w_c = np.einsum("bnt,bdt->bdn", g_ct, x)
        gx += np.einsum("bdn,bnt->bdt", w_c, g_ct)
        g_a_log = g_a * a  # dA/dA_log = -exp(A_log) = A

        g_fields = (g_a_log, g_dskip, g_w_b, g_w_c, g_w_dn, g_w_up, g_b_dt)
        return [gx] + [g[k] for k in range(nb) for g in g_fields]

    return T.record(y, inputs, backward)


def s6_forward_naive(seq: Tensor, p: S6Params) -> Tensor:
    """Scan one (d, T) sequence through the batched core; tape-recorded."""
    if seq.data.ndim != 2:
        raise ContractViolation("s6_forward_naive expects a (d, T) sequence")
    out = _s6_core(T.reshape(seq, (1,) + seq.shape), [p])
    return T.reshape(out, seq.shape)


def ss2d(x: Tensor, params: list[S6Params], orders: list[ScanOrder]) -> Tensor:
    """Four-direction scan-and-merge: gather, scan, scatter, sum (fixed order)."""
    if len(params) != len(orders):
        raise ContractViolation("ss2d: need one S6Params per ScanOrder")
    c, h, w = x.shape
    for o in orders:
        if (o.h, o.w) != (h, w):
            raise ContractViolation("ss2d: all orders must match the image dims")
    seqs = T.stack([gather_tokens(x, o) for o in orders], axis=0)
    ys = _s6_core(seqs, params)
    out = None
    for k, o in enumerate(orders):
        seq_k = T.reshape(T.narrow(ys, 0, k, 1), (c, h * w))
        img_k = scatter_tokens(seq_k, o)
        out = img_k if out is None else T.add(out, img_k)
    return out
