"""Input-dependent state-space recurrence (S6) and its 2D four-direction wrapper.

The recurrence per channel d and state n over a token sequence x_t:

    delta_t = softplus(W_up @ (W_down @ x_t) + b)          (per-channel step)
    Abar_t  = exp(delta_t * A),  A = -exp(A_log) < 0       (zero-order hold)
    h_t     = Abar_t * h_{t-1} + (delta_t * x_t) outer B_t (Euler for B)
    y_t     = <C_t, h_t> + D_skip * x_t

B_t and C_t are linear projections of x_t shared across channels. The
forward loops over chunks of CHUNK tokens, carrying h. Each chunk stage is
one numpy kernel: GEMMs for the projections, `tensor.softplus` for delta,
einsum for the outer products delta*A and (delta*x) B_t, and a batched
matmul for the readout <C_t, h_t>. States live in one chunk's time-major
buffer. A taped call keeps only the state entering each chunk, and the
hand-written backward walks the chunks in reverse, recomputing each
chunk's states from it (Mamba's recompute-in-backward, Gu & Dao 2023,
arXiv 2312.00752). It loops only over the dL/dh_t recurrence, carrying
dL/dh across chunk edges, and takes every other gradient per token or as
a sum over T: batched matmuls, and einsums where a matmul would broadcast
A's (B, d).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ContractViolation, NumericError
from . import tensor as T
from .tensor import Tensor
from .scan import ScanOrder, gather_tokens, scatter_tokens

CHUNK = 256  # tokens per chunk of the forward and of the backward's recompute


class S6Params(NamedTuple):
    """One selective-scan head, its fields shaped as `head_specs` lists."""

    a_log: Tensor  # A = -exp(a_log)
    d_skip: Tensor
    w_b: Tensor
    w_c: Tensor
    w_dt_down: Tensor  # bottleneck in
    w_dt_up: Tensor  # bottleneck out
    b_dt: Tensor

    @property
    def n(self) -> int:
        return self.a_log.shape[1]


def delta_rank(d: int) -> int:
    return max(d // 16, 1)


def head_specs(d: int, n: int):
    """(field, shape, init kind) per S6Params field: d channels, n states."""
    r = delta_rank(d)
    return [
        ("a_log", (d, n), "a_log"),
        ("d_skip", (d,), "ones"),
        ("w_b", (d, n), "linear_rows"),
        ("w_c", (d, n), "linear_rows"),
        ("w_dt_down", (r, d), "fan_in"),
        ("w_dt_up", (d, r), "fan_in"),
        ("b_dt", (d,), "zeros"),
    ]


def _chunk_states(delta, dbx, b_t, a, h, dcy, st, tmp):
    """One chunk's decays exp(delta * A) into dcy and its states into st,
    from the entry state h: st first holds the injections (delta*x) B_t,
    and each becomes its state as s += dcy*h through the (B, d, n) scratch
    tmp. The forward and the backward's recompute both call this, so their
    states agree bit for bit."""
    # einsum writes these outer products faster than a broadcast over the
    # short n axis
    np.exp(np.einsum("tbd,bdn->tbdn", delta, a, out=dcy), out=dcy)
    np.einsum("tbd,tbn->tbdn", dbx, b_t, out=st)
    for dc, s in zip(dcy, st):
        s += np.multiply(dc, h, out=tmp)
        h = s


def _s6_core(seq: Tensor, params: list[S6Params]) -> Tensor:
    """Batched fused scan: seq (B, d, T), one head per batch entry. Heads
    may repeat, so a layout is a list of heads: per direction, per sample.

    An untaped call consumes seq: when seq has the result dtype, y is
    written over seq's data, each chunk reading its x slice before it
    writes its y slice. Callers that read seq afterwards pass a copy. A
    taped call writes y to a new array and keeps x, the whole-T per-token
    projections and each chunk's entry state for backward."""
    if len(seq.shape) != 3 or len(params) != seq.shape[0]:
        raise ContractViolation("one S6Params required per batch entry of a (B, d, T) "
                                f"sequence, got {len(params)} for {seq.shape}")
    nb, d, t = seq.shape
    for p in params:
        if len(p.a_log.shape) == 2 and p.a_log.shape[0] != d:
            raise ContractViolation(
                f"S6Params d={p.a_log.shape[0]} does not match sequence d={d}")
        n = p.a_log.shape[-1] if p.a_log.shape else 0
        if tuple(f.shape for f in p) != tuple(s for _, s, _ in head_specs(d, n)):
            raise ContractViolation("S6Params shapes are inconsistent")

    inputs = (seq, *(f for p in params for f in p))
    a_log, d_skip, w_b, w_c, w_dn, w_up, b_dt = (
        np.stack([f.data for f in col]) for col in zip(*params)
    )

    x = seq.data
    with np.errstate(over="ignore"):  # A = -inf is the exact limit: decay 0
        a = -np.exp(a_log)
    n, r = a.shape[2], w_dn.shape[1]
    dtype = np.result_type(x, a_log, d_skip, w_b, w_c, w_dn, w_up, b_dt)
    chunk, starts = min(t, CHUNK), range(0, t, CHUNK)
    # an untaped call reuses one chunk's rows and carries one state
    taped = any(v.tape is not None for v in inputs)
    code_, delta_, b_t_, c_t_, dbx_ = (
        np.empty((t if taped else chunk, nb, k), dtype) for k in (r, d, n, n, d))
    h0 = np.zeros((len(starts) if taped else 1, nb, d, n), dtype)
    dcy_, st_ = (np.empty((chunk, nb, d, n), dtype) for _ in range(2))
    tmp = np.empty((nb, d, n), dtype)
    # the softplus scratch and the readout borrow the front of the decays'
    # memory: both run while it holds no decays the chunk still needs
    sp_ = dcy_.reshape(-1)[: chunk * nb * d].reshape(-1, nb, d)
    y = x if not taped and x.dtype == dtype else np.empty((nb, d, t), dtype)
    for k, c0 in enumerate(starts):
        c1 = min(c0 + CHUNK, t)
        at = slice(c0, c1) if taped else slice(0, c1 - c0)
        code, delta, b_t, c_t, dbx = (v[at] for v in (code_, delta_, b_t_, c_t_, dbx_))
        dcy, st, sp = dcy_[: c1 - c0], st_[: c1 - c0], sp_[: c1 - c0]
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
        _chunk_states(delta, dbx, b_t, a, h0[k if taped else 0], dcy, st, tmp)
        if c1 < t:
            h0[k + 1 if taped else 0] = st[-1]
        # into the contiguous scratch the matmul runs up to 2x faster than
        # into the strided output view
        np.matmul(st, c_t[..., None], out=sp[..., None])
        np.add(sp, d_skip * xc, out=y[:, :, c0:c1].transpose(2, 0, 1))
    if not T.all_finite(y):
        bad = np.argwhere(~np.isfinite(y).all(axis=1).T)  # (token, entry), earliest first
        raise NumericError(f"s6 scan produced non-finite values at token {bad[0, 0]} "
                           f"of batch entry {bad[0, 1]}")

    def backward(gy):
        xt, gyt = x.transpose(2, 0, 1), gy.transpose(2, 0, 1)
        delta, code, b_t, c_t, dbx = delta_, code_, b_t_, c_t_, dbx_
        g_ct, g_bt = (np.empty((t, nb, n), dtype) for _ in range(2))
        g_dbx, g_delta = (np.empty((t, nb, d), dtype) for _ in range(2))
        g_a = np.zeros((nb, d, n), dtype)
        dcy_, st_, gh_ = (np.empty((chunk, nb, d, n), dtype) for _ in range(3))
        carry = np.empty((nb, d, n), dtype)  # abar[c1] * gh[c1] of the next chunk
        # the chunks in reverse, each one's states recomputed from its entry
        for k, c0 in reversed(list(enumerate(starts))):
            c1 = min(c0 + CHUNK, t)
            at = slice(c0, c1)
            dcy, st, gh = dcy_[: c1 - c0], st_[: c1 - c0], gh_[: c1 - c0]
            # gh[i] = dL/dh_i; the carry is added before the recompute,
            # which uses its buffer as scratch
            np.einsum("tbd,tbn->tbdn", gyt[at], c_t[at], out=gh)
            if c1 < t:
                gh[-1] += carry
            _chunk_states(delta[at], dbx[at], b_t[at], a, h0[k], dcy, st, carry)
            # only this recurrence runs token by token; each step leaves
            # g_da's product abar[i+1] * gh[i+1] in dcy[i+1]
            for g0, g1, a1 in zip(gh[-2::-1], gh[:0:-1], dcy[:0:-1]):
                g0 += np.multiply(a1, g1, out=a1)
            np.multiply(dcy[0], gh[0], out=carry)
            g_da = dcy  # dL/d(delta_i * A) = gh_i * abar_i * h_{i-1}
            g_da[1:] *= st[:-1]
            np.multiply(carry, h0[k], out=g_da[0])
            np.matmul(gyt[at, :, None, :], st, out=g_ct[at, :, None, :])  # (1, d) @ (d, n)
            np.matmul(dbx[at, :, None, :], gh, out=g_bt[at, :, None, :])
            np.matmul(gh, b_t[at, :, :, None], out=g_dbx[at, :, :, None])  # (d, n) @ (n, 1)
            np.einsum("tbdn,bdn->tbd", g_da, a, out=g_delta[at])
            g_a += np.einsum("tbdn,tbd->bdn", g_da, delta[at])
        g_delta += g_dbx * xt
        g_a_log = g_a * a  # dA/dA_log = A
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
    cross-merge, summing the K sequences put back along their orders. The
    gathered sequences belong to this call alone, so an untaped scan writes
    its output over them."""
    return scatter_tokens(_s6_core(gather_tokens(x, orders), params), orders)
