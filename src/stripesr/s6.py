"""Input-dependent state-space recurrence (S6) and its 2D four-direction wrapper.

The recurrence per channel d and state n over a token sequence x_t:

    delta_t = softplus(W_up @ (W_down @ x_t) + b)          (per-channel step)
    Abar_t  = exp(delta_t * A),  A = -exp(A_log) < 0       (zero-order hold)
    h_t     = Abar_t * h_{t-1} + (delta_t * x_t) outer B_t (Euler for B)
    y_t     = <C_t, h_t> + D_skip * x_t

B_t and C_t are linear projections of x_t shared across channels. Taped and
untaped calls run one path: the token loop writes each h_t over its own
decay Abar_t (time-major, T x B x d x n). The hand-written backward
recomputes the decays, loops only over the dL/dh_t recurrence and computes
every other gradient over all of T at once.
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


def _time_major(v):
    """(B, k, T) -> contiguous (T, B, k), so each token is one slice."""
    return np.ascontiguousarray(v.transpose(2, 0, 1))


def _decay(delta, a):
    """Per-token decays exp(delta * A), time-major (T, B, d, n)."""
    p = _time_major(delta)[..., None] * a
    return np.exp(p, out=p)


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
    code = np.einsum("brd,bdt->brt", w_dn, x)
    delta = np.logaddexp(0.0, np.einsum("bdr,brt->bdt", w_up, code)
                         + b_dt[:, :, None])
    b_t = np.einsum("bdn,bdt->bnt", w_b, x)
    c_t = np.einsum("bdn,bdt->bnt", w_c, x)
    dbx = delta * x

    # each state overwrites its own decay, so `hs` is the decay buffer
    hs = _decay(delta, a)
    u, bt = _time_major(dbx)[..., None], _time_major(b_t)[:, :, None, :]
    h = np.zeros_like(hs[0])
    for i in range(t):
        h = hs[i] * h + u[i] * bt[i]
        hs[i] = h
    y = np.einsum("tbdn,bnt->bdt", hs, c_t) + d_skip[:, :, None] * x
    if not np.all(np.isfinite(y)):
        raise NumericError("s6 scan produced non-finite values")

    def backward(gy):
        abar = _decay(delta, a)
        # gh[i] = dL/dh_i; only this recurrence runs token by token
        gh = _time_major(gy)[..., None] * _time_major(c_t)[:, :, None, :]
        for i in range(t - 2, -1, -1):
            gh[i] += abar[i + 1] * gh[i + 1]
        g_ct = np.einsum("tbdn,bdt->bnt", hs, gy)
        g_bt = np.einsum("tbdn,bdt->bnt", gh, dbx)
        g_dbx = np.einsum("tbdn,bnt->bdt", gh, b_t)
        # dL/d(delta_i * A) = gh_i * abar_i * h_{i-1}, with h_{-1} = 0
        g_da = np.multiply(abar, gh, out=abar)
        g_da[1:] *= hs[:-1]
        g_da[0] = 0.0
        g_delta = np.einsum("tbdn,bdn->bdt", g_da, a) + g_dbx * x
        g_a_log = np.einsum("tbdn,bdt->bdn", g_da, delta) * a  # dA/dA_log = A
        g_raw = g_delta * -np.expm1(-delta)  # softplus' = 1 - exp(-softplus)
        g_b_dt = g_raw.sum(axis=2)
        g_w_up = np.einsum("bdt,brt->bdr", g_raw, code)
        g_code = np.einsum("bdr,bdt->brt", w_up, g_raw)
        g_w_dn = np.einsum("brt,bdt->brd", g_code, x)
        g_dskip = np.einsum("bdt,bdt->bd", gy, x)
        g_w_b = np.einsum("bnt,bdt->bdn", g_bt, x)
        g_w_c = np.einsum("bnt,bdt->bdn", g_ct, x)
        gx = (gy * d_skip[:, :, None] + g_dbx * delta
              + np.einsum("brd,brt->bdt", w_dn, g_code)
              + np.einsum("bdn,bnt->bdt", w_b, g_bt)
              + np.einsum("bdn,bnt->bdt", w_c, g_ct))

        g_fields = (g_a_log, g_dskip, g_w_b, g_w_c, g_w_dn, g_w_up, g_b_dt)
        return [gx] + [g[k] for k in range(nb) for g in g_fields]

    # a tensor shared by several entries is listed once per entry; the tape
    # sums its per-entry gradients
    return T.record(y, (seq, *(f for fs in fields for f in fs)), backward)


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
