"""Input-dependent state-space recurrence (S6) and its 2D four-direction wrapper.

The recurrence per channel d and state n over a token sequence x_t:

    delta_t = softplus(W_up @ (W_down @ x_t) + b)          (per-channel step)
    Abar_t  = exp(delta_t * A),  A = -exp(A_log) < 0       (zero-order hold)
    h_t     = Abar_t * h_{t-1} + (delta_t * x_t) outer B_t (Euler for B)
    y_t     = <C_t, h_t> + D_skip * x_t

B_t and C_t are linear projections of x_t shared across channels. The
forward loops over chunks of CHUNK tokens, carrying h; in each chunk h_t
overwrites its decay Abar_t in place (time-major). Each chunk stage is one
numpy kernel: GEMMs for the projections, `tensor.softplus` for delta, einsum
for the outer products delta*A and (delta*x) B_t, and a batched matmul for
the readout <C_t, h_t>. Untaped calls reuse one chunk's buffers; taped calls
write into whole-T arrays that the hand-written backward reads. It
recomputes the decays, loops only over the dL/dh_t recurrence and takes
every other gradient over all of T: per-token contractions and sums over T
as batched matmuls, and einsums where a matmul would broadcast A's (B, d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericError
from . import tensor as T
from .tensor import Tensor
from .scan import ScanOrder, gather_tokens, scatter_tokens

CHUNK = 256  # tokens per step of the forward's chunk loop


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
    inputs = (seq, *(f for fs in fields for f in fs))
    a_log, d_skip, w_b, w_c, w_dn, w_up, b_dt = (
        np.stack([f.data for f in col]) for col in zip(*fields)
    )

    x = seq.data
    a = -np.exp(a_log)
    n, r = a.shape[2], w_dn.shape[1]
    dtype = np.result_type(x, a_log, d_skip, w_b, w_c, w_dn, w_up, b_dt)
    # a taped call keeps whole-T arrays for backward; an untaped one reuses
    # one chunk's rows
    taped = any(v.tape is not None for v in inputs)
    code_, delta_, b_t_, c_t_, dbx_, hs_ = (
        np.empty((t if taped else min(t, CHUNK), nb, *k), dtype)
        for k in ((r,), (d,), (n,), (n,), (d,), (d, n)))
    ub_ = np.empty((min(t, CHUNK), nb, d, n), dtype)
    # the softplus scratch and the readout borrow the front of ub's memory:
    # both run while ub holds no injections
    sp_ = ub_.reshape(-1)[: ub_.shape[0] * nb * d].reshape(-1, nb, d)
    y = np.empty((nb, d, t), dtype)
    h = np.zeros((nb, d, n), dtype)
    for c0 in range(0, t, CHUNK):
        c1 = min(c0 + CHUNK, t)
        at = slice(c0, c1) if taped else slice(0, c1 - c0)
        code, delta, b_t, c_t, dbx, st = (
            v[at] for v in (code_, delta_, b_t_, c_t_, dbx_, hs_))
        ub, sp = ub_[: c1 - c0], sp_[: c1 - c0]
        xs = x[:, :, c0:c1]
        xc = xs.transpose(2, 0, 1)
        # (B, k, L) GEMMs written through time-major (L, B, k) views
        np.matmul(w_dn, xs, out=code.transpose(1, 2, 0))
        np.matmul(w_up, code.transpose(1, 2, 0), out=delta.transpose(1, 2, 0))
        delta += b_dt
        T.softplus(delta, out=delta, scratch=sp)
        np.matmul(w_b.transpose(0, 2, 1), xs, out=b_t.transpose(1, 2, 0))
        np.matmul(w_c.transpose(0, 2, 1), xs, out=c_t.transpose(1, 2, 0))
        np.multiply(delta, xc, out=dbx)
        # each state overwrites its own decay exp(delta * A); einsum writes
        # these outer products faster than a broadcast over the short n axis
        np.exp(np.einsum("tbd,bdn->tbdn", delta, a, out=st), out=st)
        np.einsum("tbd,tbn->tbdn", dbx, b_t, out=ub)
        for s, u in zip(st, ub):
            s *= h
            s += u
            h = s
        h = h.copy()
        # into the contiguous scratch the matmul runs up to 2x faster than
        # into the strided output view
        np.matmul(st, c_t[..., None], out=sp[..., None])
        np.add(sp, d_skip * xc, out=y[:, :, c0:c1].transpose(2, 0, 1))
    bad = np.argwhere(~np.isfinite(y).all(axis=1).T)  # (token, entry), earliest first
    if bad.size:
        raise NumericError(f"s6 scan produced non-finite values at token {bad[0, 0]} "
                           f"of batch entry {bad[0, 1]}")

    def backward(gy):
        xt, gyt = x.transpose(2, 0, 1), gy.transpose(2, 0, 1)
        delta, code, b_t, c_t, dbx, hs = delta_, code_, b_t_, c_t_, dbx_, hs_
        abar = np.einsum("tbd,bdn->tbdn", delta, a)
        np.exp(abar, out=abar)
        # gh[i] = dL/dh_i; only this recurrence runs token by token, and
        # each step leaves g_da's product abar[i+1] * gh[i+1] in abar[i+1]
        gh = np.einsum("tbd,tbn->tbdn", gyt, c_t)
        for i in range(t - 2, -1, -1):
            gh[i] += np.multiply(abar[i + 1], gh[i + 1], out=abar[i + 1])
        g_ct = np.matmul(gyt[:, :, None, :], hs)[:, :, 0]  # (1, d) @ (d, n)
        g_bt = np.matmul(dbx[:, :, None, :], gh)[:, :, 0]
        g_dbx = np.matmul(gh, b_t[..., None])[..., 0]  # (d, n) @ (n, 1)
        del gh  # so that it is not held through the whole-T work below
        g_da = abar  # dL/d(delta_i * A) = gh_i * abar_i * h_{i-1}, h_{-1} = 0
        g_da[1:] *= hs[:-1]
        g_da[0] = 0.0
        g_delta = np.einsum("tbdn,bdn->tbd", g_da, a) + g_dbx * xt
        g_a_log = np.einsum("tbdn,tbd->bdn", g_da, delta) * a  # dA/dA_log = A
        g_raw = g_delta * -np.expm1(-delta)  # softplus' = 1 - exp(-softplus)
        g_b_dt = g_raw.sum(axis=0)
        # the sums over T: GEMMs batched over b on (b, k, t) views
        g_raw, g_bt, g_ct = (v.transpose(1, 2, 0) for v in (g_raw, g_bt, g_ct))
        g_w_up = np.matmul(g_raw, code.transpose(1, 0, 2))
        g_code = np.matmul(w_up.transpose(0, 2, 1), g_raw)  # (b, r, t)
        g_w_dn = np.matmul(g_code, x.transpose(0, 2, 1))
        g_dskip = np.einsum("bdt,bdt->bd", gy, x)
        g_w_b = np.matmul(x, g_bt.transpose(0, 2, 1))
        g_w_c = np.matmul(x, g_ct.transpose(0, 2, 1))
        gx = np.matmul(w_dn.transpose(0, 2, 1), g_code) + np.matmul(w_b, g_bt)
        gx += np.matmul(w_c, g_ct) + (gyt * d_skip + g_dbx * delta).transpose(1, 2, 0)

        g_fields = (g_a_log, g_dskip, g_w_b, g_w_c, g_w_dn, g_w_up, g_b_dt)
        return [gx] + [g[k] for k in range(nb) for g in g_fields]

    # a tensor shared by several entries is listed once per entry; the tape
    # sums its per-entry gradients
    return T.record(y, inputs, backward)


def ss2d(x: Tensor, params: list[S6Params], orders: list[ScanOrder]) -> Tensor:
    """VMamba's SS2D on a (C, H, W) image: cross-scan it along the K orders
    into one (K, C, T) batch, scan entry k with params[k] in one S6 call, and
    cross-merge, summing the K sequences put back along their orders."""
    if len(params) != len(orders):
        raise ContractViolation("ss2d: need one S6Params per ScanOrder")
    return scatter_tokens(_s6_core(gather_tokens(x, orders), params), orders)
