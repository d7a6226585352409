"""Span tracer for the benchmark's traced run.

The tracer times the program from outside: it replaces each public function
in the module globals its callers look it up in with a wrapper that opens a
span, and restores the originals on `uninstall`. It also wraps
`Tape.record`, so every backward closure is timed and charged to the span
that was innermost when the node was recorded. Spans are aggregated in
memory per phase ("setup", "op") and turned into per-layer
metrics once, at the end of the run.

A span's self time is its duration minus the time of the wrapped spans and
backward closures that ran inside it.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

import stripesr.blocks
import stripesr.cli
import stripesr.data
import stripesr.metrics
import stripesr.model
import stripesr.ops
import stripesr.s6
from stripesr.tensor import Tape

# Functions that only run during set-up. Their metrics are per set-up
# repetition; every other function is reported per measured op.
SETUP_FUNCS = {
    "data.synth_cube": ("fwd_s", "bytes"),
    "data.degrade": ("fwd_s", "bytes"),
    "model.save_checkpoint": ("fwd_s",),
    "train.sample_patches": ("fwd_s",),
}

OP_FUNCS = {
    "s6.ss2d": ("calls", "fwd_s", "bwd_s", "flops", "tokens"),
    "ops.conv2d": ("calls", "fwd_s", "bwd_s", "flops"),
    "ops.layernorm": ("fwd_s", "bwd_s"),
    "ops.channel_attention": ("fwd_s", "bwd_s"),
    "ops.bicubic_resize": ("fwd_s", "bwd_s"),
    "ops.l1_loss": ("fwd_s", "bwd_s"),
    "ops.adamw_step": ("fwd_s",),
    "scan.gather_tokens": ("calls", "fwd_s", "bwd_s"),
    "scan.scatter_tokens": ("calls", "fwd_s", "bwd_s"),
    "scan.make_order": ("calls", "fwd_s", "bwd_s"),
    "wavelet.dwt_haar": ("fwd_s", "bwd_s"),
    "wavelet.iwt_haar": ("fwd_s", "bwd_s"),
    "model.forward": ("fwd_s",),
    "model.load_checkpoint": ("fwd_s",),
    "data.read_hsc": ("fwd_s", "bytes"),
    "data.write_hsc": ("fwd_s", "bytes"),
    "metrics.psnr": ("fwd_s",),
    "metrics.ssim": ("fwd_s",),
    "metrics.sam": ("fwd_s",),
    "metrics.ergas": ("fwd_s",),
}

UNITS = {"calls": "count", "fwd_s": "s", "bwd_s": "s", "flops": "flop",
         "tokens": "token", "bytes": "B"}

# The op span of a training workload; the forward, backward and optimizer
# spans directly inside it give train.step.{fwd_s,bwd_s,opt_s}.
TRAIN_STEP = "train.step"


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0  # span time minus wrapped children and closures
    incl_s: float = 0.0  # whole span time
    bwd_s: float = 0.0  # closures recorded while this span was innermost
    bwd_incl_s: float = 0.0  # closures recorded anywhere inside (blocks)
    counts: dict = field(default_factory=dict)
    under: dict = field(default_factory=dict)  # parent span -> incl seconds


def _conv_flops(args, kwargs, out):
    c_out, c_in_g, kh, kw = args[1].shape
    _, ho, wo = out.shape
    return {"flops": 2 * kh * kw * c_in_g * c_out * ho * wo}


def _ss2d_flops(args, kwargs, out):
    # Same convention as model.estimate_flops: 2 flops per multiply-add,
    # delta/B/C projections plus decay, inject, readout and skip per token.
    x, params = args[0], args[1]
    c, h, w = x.shape
    n, r = params[0].n, params[0].w_dt_down.shape[0]
    per_token = 2 * (2 * r * c + 2 * c * n) + 3 * 2 * c * n + 2 * c
    tokens = len(params) * h * w
    return {"flops": tokens * per_token, "tokens": tokens}


def _out_bytes(args, kwargs, out):
    return {"bytes": out.data.nbytes}


def _arg_bytes(args, kwargs, out):
    return {"bytes": args[0].data.nbytes}


def _tape_nodes(args, kwargs, out):
    return {"nodes": len(args[0].nodes)}


def _block_span(args):
    return "blocks." + args[1].prefix.rstrip(".")


class Tracer:
    """Wraps the program's public functions and aggregates spans per phase."""

    def __init__(self):
        self.stats: dict = {}  # phase -> span name -> Stat
        self.phase: str | None = None
        self.mem_probe = False  # measure ss2d peak bytes with tracemalloc
        self.peak_bytes = 0
        self.forward_inputs: list = []  # (config, h, w) per op-phase forward
        self._stack: list = []  # open frames: [name, start, child_s, prev_block]
        self._block: str | None = None
        self._saved: list = []

    # ---------------------------------------------------------- spans

    def _stat(self, name: str) -> Stat:
        return self.stats.setdefault(self.phase, {}).setdefault(name, Stat())

    def _enter(self, name: str) -> None:
        prev_block = self._block
        if name.startswith("blocks."):
            self._block = name
        self._stack.append([name, time.perf_counter(), 0.0, prev_block])

    def _exit(self) -> float:
        name, start, child, prev_block = self._stack.pop()
        dur = time.perf_counter() - start
        self._block = prev_block
        st = self._stat(name)
        st.calls += 1
        st.incl_s += dur
        st.self_s += dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            st.under[parent[0]] = st.under.get(parent[0], 0.0) + dur
        return child / dur if dur > 0 else 0.0

    def _count(self, name: str, counts: dict) -> None:
        st = self._stat(name)
        for k, v in counts.items():
            st.counts[k] = st.counts.get(k, 0) + v

    def begin_op(self, name: str) -> None:
        self._enter(name)

    def end_op(self) -> float:
        """Close the op span; returns the share of it inside named spans."""
        return self._exit()

    # ---------------------------------------------------------- wrapping

    def _wrap(self, owner, attr: str, name, counter=None, probe=False) -> None:
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            probing = probe and tracer.mem_probe
            if probing:
                tracemalloc.start()
            tracer._enter(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
                if probing:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peak_bytes = max(tracer.peak_bytes, peak)
            if counter is not None:
                tracer._count(span, counter(args, kwargs, out))
            return out

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def _timed_backward(self, backward):
        owner = self._stack[-1][0] if self._stack else None
        block = self._block

        def timed(g):
            start = time.perf_counter()
            grads = backward(g)
            dt = time.perf_counter() - start
            if self._stack:
                self._stack[-1][2] += dt
            if owner is not None:
                self._stat(owner).bwd_s += dt
            if block is not None:
                self._stat(block).bwd_incl_s += dt
            return grads

        return timed

    def install(self) -> None:
        blocks, ops, mdl = stripesr.blocks, stripesr.ops, stripesr.model
        train_mod = sys.modules["stripesr.train"]
        w = self._wrap
        w(blocks, "ss2d", "s6.ss2d", _ss2d_flops, probe=True)
        w(stripesr.s6, "gather_tokens", "scan.gather_tokens")
        w(stripesr.s6, "scatter_tokens", "scan.scatter_tokens")
        w(blocks, "make_order", "scan.make_order")
        w(ops, "conv2d", "ops.conv2d", _conv_flops)
        for fn in ("layernorm", "channel_attention", "bicubic_resize",
                   "l1_loss", "adamw_step"):
            w(ops, fn, f"ops.{fn}")
        w(mdl, "dwt_haar", "wavelet.dwt_haar")
        w(mdl, "iwt_haar", "wavelet.iwt_haar")
        for fn in ("lfse_forward", "hfse_forward", "hlfd_forward"):
            w(blocks, fn, _block_span)
        w(mdl, "forward", "model.forward", self._forward_input)
        w(train_mod, "forward", "model.forward", self._forward_input)
        w(mdl, "load_checkpoint", "model.load_checkpoint")
        w(mdl, "save_checkpoint", "model.save_checkpoint")
        w(stripesr.data, "read_hsc", "data.read_hsc", _out_bytes)
        w(stripesr.data, "write_hsc", "data.write_hsc", _arg_bytes)
        w(stripesr.data, "degrade", "data.degrade", _out_bytes)
        w(stripesr.data, "synth_cube", "data.synth_cube", _out_bytes)
        for fn in ("psnr", "ssim", "sam", "ergas"):
            w(stripesr.metrics, fn, f"metrics.{fn}")
        w(train_mod, "sample_patches", "train.sample_patches")
        w(stripesr.cli, "main", "cli.main")
        w(Tape, "backward", "tensor.Tape.backward", _tape_nodes)
        original_record = Tape.record
        tracer = self

        def record(tape, out_data, parents, backward):
            return original_record(tape, out_data, parents,
                                   tracer._timed_backward(backward))

        self._saved.append((Tape, "record", original_record))
        Tape.record = record

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _forward_input(self, args, kwargs, out):
        if self.phase == "op":
            x, cfg = args[0], args[2]
            self.forward_inputs.append((cfg, x.shape[1], x.shape[2]))
        return {}

    # ---------------------------------------------------------- metrics

    def metrics(self, n_ops: int, setup_reps: int, block_paths,
                cache_hits: int, cache_misses: int,
                coverage: float, overhead: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}; zero where a layer
        did not run."""
        ops_ = self.stats.get("op", {})
        setup = self.stats.get("setup", {})
        empty = Stat()
        out = {}

        def get(table, name):
            return table.get(name, empty)

        def quantity(st, q, per):
            if q == "calls":
                v = st.calls
            elif q == "fwd_s":
                v = st.self_s
            elif q == "bwd_s":
                v = st.bwd_s
            else:
                v = st.counts.get(q, 0)
            return v / per

        for funcs, table, per in ((OP_FUNCS, ops_, n_ops),
                                  (SETUP_FUNCS, setup, setup_reps)):
            for name, quantities in funcs.items():
                for q in quantities:
                    out[f"{name}.{q}"] = (quantity(get(table, name), q, per), UNITS[q])
        out["s6.ss2d.peak_bytes"] = (self.peak_bytes, "B")

        tape_bw = get(ops_, "tensor.Tape.backward")
        out["tensor.Tape.backward.self_s"] = (tape_bw.self_s / n_ops, "s")
        out["tensor.nodes"] = (tape_bw.counts.get("nodes", 0) / n_ops, "count")

        lookups = cache_hits + cache_misses
        out["scan.order_cache.hit_ratio"] = (
            cache_hits / lookups if lookups else 0.0, "1")

        for path in block_paths:
            st = get(ops_, f"blocks.{path}")
            out[f"blocks.{path}.fwd_s"] = (st.incl_s / n_ops, "s")
            out[f"blocks.{path}.bwd_s"] = (st.bwd_incl_s / n_ops, "s")
            out[f"blocks.{path}.self_s"] = (st.self_s / n_ops, "s")

        def under_step(name):
            return get(ops_, name).under.get(TRAIN_STEP, 0.0) / n_ops

        out["train.step.fwd_s"] = (
            under_step("model.forward") + under_step("ops.l1_loss"), "s")
        out["train.step.bwd_s"] = (under_step("tensor.Tape.backward"), "s")
        out["train.step.opt_s"] = (under_step("ops.adamw_step"), "s")

        out["cli.main.self_s"] = (get(ops_, "cli.main").self_s / n_ops, "s")
        out["trace.coverage"] = (coverage, "1")
        out["trace.overhead"] = (overhead, "1")

        traced = sum(get(ops_, n).counts.get("flops", 0)
                     for n in ("ops.conv2d", "s6.ss2d"))
        estimate = sum(stripesr.model.estimate_flops(cfg, h, w)
                       for cfg, h, w in self.forward_inputs)
        out["model.flops_traced_over_estimate"] = (
            traced / estimate if estimate else 0.0, "1")
        return out
