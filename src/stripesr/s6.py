"""Input-dependent state-space recurrence (S6) and its 2D four-direction wrapper.

The recurrence per channel d and state n over a token sequence x_t:

    delta_t = softplus(W_up @ (W_down @ x_t) + b)          (per-channel step)
    Abar_t  = exp(delta_t * A),  A = -exp(A_log) < 0       (zero-order hold)
    h_t     = Abar_t * h_{t-1} + (delta_t * x_t) outer B_t (Euler for B)
    y_t     = <C_t, h_t> + D_skip * x_t

B_t and C_t are linear projections of x_t shared across channels. The
forward walks chunks of CHUNK tokens through one set of one-chunk
time-major buffers, carrying h. `_chunk` fills them: GEMMs for the
projections, `tensor.softplus` for delta, einsum for the outer products
delta*A and (delta*x) B_t, and the state recurrence. A call keeps x and
the state entering each chunk. The hand-written backward walks the chunks
in reverse and recomputes each one with `_chunk` from its entry state
(Mamba's recompute-in-backward, Gu & Dao 2023, arXiv 2312.00752). It loops
only over the dL/dh_t recurrence, carrying dL/dh across chunk edges, and
takes every other gradient per token or as the chunk's sum over tokens:
batched matmuls, and einsums where a matmul would broadcast A's (B, d).
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


def _chunk(xs, w, h, bufs):
    """One chunk's rows from its x slice xs (B, d, L), the stacked weights w
    and its entry state h: the first L of bufs' time-major rows code, delta,
    B_t, C_t, delta*x, decays exp(delta * A) and states, which it returns.
    st first holds the injections (delta*x) B_t, and each becomes its state
    as s += dcy*h through bufs' last entry, a (B, d, n) scratch. The forward
    and the backward's recompute both call this, so they agree bit for bit."""
    w_dn, w_up, b_dt, w_b, w_c, a = w
    *rows, tmp = bufs
    code, delta, b_t, c_t, dbx, dcy, st = rows = [v[: xs.shape[2]] for v in rows]
    # (B, k, L) GEMMs written through time-major (L, B, k) views
    np.matmul(w_dn, xs, out=code.transpose(1, 2, 0))
    np.matmul(w_up, code.transpose(1, 2, 0), out=delta.transpose(1, 2, 0))
    delta += b_dt
    T.softplus(delta, out=delta, scratch=dbx)  # dbx is free until delta*x
    np.matmul(w_b.transpose(0, 2, 1), xs, out=b_t.transpose(1, 2, 0))
    np.matmul(w_c.transpose(0, 2, 1), xs, out=c_t.transpose(1, 2, 0))
    np.multiply(delta, xs.transpose(2, 0, 1), out=dbx)
    # einsum writes these outer products faster than a broadcast over the
    # short n axis
    np.exp(np.einsum("tbd,bdn->tbdn", delta, a, out=dcy), out=dcy)
    np.einsum("tbd,tbn->tbdn", dbx, b_t, out=st)
    for dc, s in zip(dcy, st):
        s += np.multiply(dc, h, out=tmp)
        h = s
    return rows


def _s6_core(seq: Tensor, params: list[S6Params]) -> Tensor:
    """Batched fused scan: seq (B, d, T), one head per batch entry. Heads
    may repeat, so a layout is a list of heads: per direction, per sample.

    Every call walks its chunks through one set of one-chunk buffers and
    keeps a copy of each chunk's entry state. An untaped call consumes seq:
    when seq has the result dtype, y is written over seq's data, each chunk
    reading its x slice before it writes its y slice. Callers that read seq
    afterwards pass a copy. A taped call writes y to a new array, and its
    backward recomputes each chunk from x and the chunk's entry state."""
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
    w = (w_dn, w_up, b_dt, w_b, w_c, a)
    n, r = a.shape[2], w_dn.shape[1]
    dtype = np.result_type(x, a_log, d_skip, w_b, w_c, w_dn, w_up, b_dt)
    chunk, starts = min(t, CHUNK), range(0, t, CHUNK)

    def buffers():  # one chunk's rows, as `_chunk` takes them
        return ([np.empty((chunk, nb, k), dtype) for k in (r, d, n, n, d)]
                + [np.empty((chunk, nb, d, n), dtype) for _ in range(2)]
                + [np.empty((nb, d, n), dtype)])

    taped = any(v.tape is not None for v in inputs)
    y = x if not taped and x.dtype == dtype else np.empty((nb, d, t), dtype)
    bufs, h0 = buffers(), [np.zeros((nb, d, n), dtype)]
    for c0 in starts:
        c1 = min(c0 + CHUNK, t)
        xs = x[:, :, c0:c1]
        _, _, _, c_t, dbx, _, st = _chunk(xs, w, h0[-1], bufs)
        if c1 < t:
            h0.append(st[-1].copy())
        # into the contiguous dbx the matmul runs up to 2x faster than into
        # the strided output view
        np.matmul(st, c_t[..., None], out=dbx[..., None])
        np.add(dbx, d_skip * xs.transpose(2, 0, 1), out=y[:, :, c0:c1].transpose(2, 0, 1))
    if not T.all_finite(y):
        bad = np.argwhere(~np.isfinite(y).all(axis=1).T)  # (token, entry), earliest first
        raise NumericError(f"s6 scan produced non-finite values at token {bad[0, 0]} "
                           f"of batch entry {bad[0, 1]}")

    def backward(gy):
        bufs, gh_ = buffers(), np.empty((chunk, nb, d, n), dtype)
        g_ct_, g_bt_, g_dbx_, g_delta_ = (np.empty((chunk, nb, k), dtype) for k in (n, n, d, d))
        g_a, g_b_dt, g_w_b, g_w_c, g_w_dn, g_w_up = (
            np.zeros(v.shape, dtype) for v in (a, b_dt, w_b, w_c, w_dn, w_up))
        gx, carry = np.empty((nb, d, t), dtype), np.empty((nb, d, n), dtype)
        # the chunks in reverse, each one recomputed from its entry state;
        # carry is abar[c1] * gh[c1] of the next chunk
        for k, c0 in reversed(list(enumerate(starts))):
            c1 = min(c0 + CHUNK, t)
            xs, gyc = x[:, :, c0:c1], gy[:, :, c0:c1].transpose(2, 0, 1)
            code, delta, b_t, c_t, dbx, dcy, st = _chunk(xs, w, h0[k], bufs)
            gh, g_ct, g_bt, g_dbx, g_delta = (
                v[: c1 - c0] for v in (gh_, g_ct_, g_bt_, g_dbx_, g_delta_))
            np.einsum("tbd,tbn->tbdn", gyc, c_t, out=gh)  # gh[i] = dL/dh_i
            if c1 < t:
                gh[-1] += carry
            # only this recurrence runs token by token; each step leaves
            # g_da's product abar[i+1] * gh[i+1] in dcy[i+1]
            for g0, g1, a1 in zip(gh[-2::-1], gh[:0:-1], dcy[:0:-1]):
                g0 += np.multiply(a1, g1, out=a1)
            np.multiply(dcy[0], gh[0], out=carry)
            g_da = dcy  # dL/d(delta_i * A) = gh_i * abar_i * h_{i-1}
            g_da[1:] *= st[:-1]
            np.multiply(carry, h0[k], out=g_da[0])
            np.matmul(gyc[:, :, None, :], st, out=g_ct[:, :, None, :])  # (1, d) @ (d, n)
            np.matmul(dbx[:, :, None, :], gh, out=g_bt[:, :, None, :])
            np.matmul(gh, b_t[:, :, :, None], out=g_dbx[:, :, :, None])  # (d, n) @ (n, 1)
            np.einsum("tbdn,bdn->tbd", g_da, a, out=g_delta)
            g_a += np.einsum("tbdn,tbd->bdn", g_da, delta)
            g_delta += g_dbx * xs.transpose(2, 0, 1)
            g_raw = g_delta * -np.expm1(-delta)  # softplus' = 1 - exp(-softplus)
            g_b_dt += g_raw.sum(axis=0)
            # the chunk's sums over tokens: GEMMs batched over b on (b, k, L) views
            g_raw, g_bt, g_ct = (v.transpose(1, 2, 0) for v in (g_raw, g_bt, g_ct))
            g_w_up += np.matmul(g_raw, code.transpose(1, 0, 2))
            g_code = np.matmul(w_up.transpose(0, 2, 1), g_raw)  # (b, r, L)
            g_w_dn += np.matmul(g_code, xs.transpose(0, 2, 1))
            g_w_b += np.matmul(xs, g_bt.transpose(0, 2, 1))
            g_w_c += np.matmul(xs, g_ct.transpose(0, 2, 1))
            gxs = np.add(np.matmul(w_dn.transpose(0, 2, 1), g_code), np.matmul(w_b, g_bt),
                         out=gx[:, :, c0:c1])
            gxs += np.matmul(w_c, g_ct) + (gyc * d_skip + g_dbx * delta).transpose(1, 2, 0)
        g_a_log = g_a * a  # dA/dA_log = A
        g_dskip = np.einsum("bdt,bdt->bd", gy, x)

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
