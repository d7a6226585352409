"""The benchmark's three closed-loop workloads.

Each workload generates its inputs with `synth_cube` and `degrade`, then
drives the program only through its public functions and
`stripesr.cli.main([...])`, one op after another. Functions are always
looked up on their module at call time, so the traced run's wrappers see
every call.

The synthetic scene is fixed; the seed picks the view of it: the crop
offset, the training patch origins and shuffle order, and the prediction
noise. The loss and PSNR then measure the program rather than how rough
the blobs are that a seed happened to draw.

Every op's output is checked: it must be finite, have the documented shape
and be byte-identical to the output of the same op earlier in the run,
because reruns of the program are bit-exact.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import struct
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import stripesr
import stripesr.cli
import stripesr.data
import stripesr.metrics
import stripesr.model


SCENE_SEED = 0


def scene_view(rng, bands: int, size: int, margin: int, step: int):
    """A size x size view of the fixed scene at a seeded offset, a multiple
    of `step` in [0, margin]."""
    scene = stripesr.data.synth_cube(SCENE_SEED, bands, size + margin, size + margin)
    oy, ox = rng.integers(margin // step + 1, size=2) * step
    return stripesr.data.HsiCube(scene.data[:, oy : oy + size, ox : ox + size])


def _train_module():
    # `stripesr.train` is the train() function: the package re-exports it
    # over the submodule's name.
    return sys.modules["stripesr.train"]


class BenchError(Exception):
    """The workload cannot be measured: set-up or warm-up went wrong."""


class OpClock:
    """Wall and CPU seconds per op, failures, and the tracer's op spans."""

    def __init__(self, tracer=None, span="bench.op"):
        self.tracer = tracer
        self.span = span
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.coverage: list[float] = []
        self.failed = 0
        self.running = False

    def start(self) -> None:
        if self.tracer is not None:
            self.tracer.begin_op(self.span)
        self.running = True
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def stop(self) -> None:
        wall = time.perf_counter() - self._wall
        cpu = time.process_time() - self._cpu
        self.running = False
        if self.tracer is not None:
            self.coverage.append(self.tracer.end_op())
        self.wall.append(wall)
        self.cpu.append(cpu)

    @property
    def attempted(self) -> int:
        return len(self.wall)


def read_hsc_raw(path: Path):
    """The (C, H, W) payload of an HSC file, without the reader's clamping."""
    raw = path.read_bytes()
    header = stripesr.data.HSC_HEADER
    if len(raw) < header.size:
        raise BenchError(f"{path.name}: truncated header")
    magic, c, h, w, _, _ = header.unpack_from(raw)
    if magic != stripesr.data.HSC_MAGIC or len(raw) != header.size + 4 * c * h * w:
        raise BenchError(f"{path.name}: not a well-formed HSC file")
    data = np.frombuffer(raw, dtype="<f4", offset=header.size).reshape(c, h, w)
    return data


class CliWorkload:
    """A workload whose op is one `stripesr.cli.main` call writing one file."""

    name = ""
    op_span = "bench.op"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.reference: bytes | None = None

    def argv(self) -> list[str]:
        raise NotImplementedError

    def output(self) -> Path:
        raise NotImplementedError

    def valid(self, out: bytes) -> bool:
        raise NotImplementedError

    def _op(self) -> bytes | None:
        """Run one op; returns the output bytes, or None if it failed."""
        with contextlib.redirect_stdout(io.StringIO()):
            rc = stripesr.cli.main(self.argv())
        return self.output().read_bytes() if rc == 0 else None

    def warm_up(self) -> None:
        out = self._op()
        if out is None or not self.valid(out):
            raise BenchError(f"{self.name}: warm-up op failed")
        self.reference = out

    def run_ops(self, clock: OpClock, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            clock.start()
            try:
                out = self._op()
            except Exception:  # an op that crashes counts as failed
                traceback.print_exc()
                out = None
            clock.stop()
            if out is None or out != self.reference:
                clock.failed += 1
            if time.perf_counter() >= deadline:
                return


class InferCli(CliWorkload):
    """`stripesr infer` with the CLI-default model: 31x64x64 -> 31x256x256."""

    name = "infer-cli"
    bands, lr_size, scale, margin = 31, 64, 4, 64

    def setup(self) -> None:
        hr = self.lr_size * self.scale
        rng = np.random.default_rng(self.seed)
        self.gt = scene_view(rng, self.bands, hr, self.margin, self.scale)
        lr = stripesr.data.degrade(self.gt, self.scale)
        stripesr.data.write_hsc(lr, str(self.work / "lr.hsc"))
        cfg = stripesr.model.ModelConfig(bands=self.bands, scale=self.scale)
        weights = stripesr.model.init_weights(cfg)
        stripesr.model.save_checkpoint(weights, str(self.work / "model.hsrw"))

    def argv(self):
        return ["infer", "--in", str(self.work / "lr.hsc"),
                "--ckpt", str(self.work / "model.hsrw"),
                "--out", str(self.output())]

    def output(self):
        return self.work / "sr.hsc"

    def valid(self, out):
        data = read_hsc_raw(self.output())
        hr = self.lr_size * self.scale
        return data.shape == (self.bands, hr, hr) and bool(np.all(np.isfinite(data)))

    def quality(self) -> dict:
        sr = read_hsc_raw(self.output())
        return {"loss_final": float(np.abs(sr - self.gt.data).mean()),
                "psnr_db": stripesr.metrics.psnr(sr, self.gt.data)}


class EvalCube(CliWorkload):
    """`stripesr eval` of a noisy 31x256x256 prediction against its GT."""

    name = "eval-31b"
    bands, size, margin, noise = 31, 256, 64, 0.02

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        gt = scene_view(rng, self.bands, self.size, self.margin, 1)
        noise = rng.normal(0.0, self.noise, gt.data.shape)
        pred = stripesr.data.HsiCube(np.clip(gt.data + noise, 0.0, 1.0))
        stripesr.data.write_hsc(gt, str(self.work / "gt.hsc"))
        stripesr.data.write_hsc(pred, str(self.work / "pred.hsc"))

    def argv(self):
        return ["eval", "--pred", str(self.work / "pred.hsc"),
                "--gt", str(self.work / "gt.hsc"), "--scale", "4",
                "--csv", str(self.output())]

    def output(self):
        return self.work / "metrics.csv"

    def _row(self, out: bytes):
        try:
            row = [float(v) for v in out.decode().strip().split(",")]
        except ValueError:
            return None
        return row if len(row) == 4 and all(map(math.isfinite, row)) else None

    def valid(self, out):
        return self._row(out) is not None

    def quality(self) -> dict:
        psnr, ssim, _, _ = self._row(self.reference)
        return {"loss_final": 1.0 - ssim, "psnr_db": psnr}


class TrainB4:
    """Optimizer steps of the criterion-9 model at batch 4.

    One op is one step. Steps run in episodes of `steps` from the same
    initial weights, so step k of every episode must reproduce step k of
    the first one bit for bit.
    """

    name = "train-b4"
    op_span = "train.step"
    bands, scale, cube, patch, patches = 8, 2, 64, 32, 16
    steps = 4  # one epoch: 16 patches at batch 4

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.mcfg = stripesr.model.ModelConfig(
            bands=self.bands, scale=self.scale, hidden=16, levels=1,
            stripe=4, state=16,
        )
        self.reference: dict[int, bytes] = {}
        self.weights = None

    def _tcfg(self, steps: int):
        return _train_module().TrainConfig(
            lr=1e-4, batch=4, epochs=steps, gt_patch=self.patch,
            seed=self.seed, max_steps=steps,
        )

    def setup(self) -> None:
        # One aligned patch from each of 16 scene cubes.
        train_mod = _train_module()
        rng = np.random.default_rng(self.seed)
        dataset = []
        for k in range(self.patches):
            gt = stripesr.data.synth_cube(SCENE_SEED + k, self.bands,
                                          self.cube, self.cube)
            lr = stripesr.data.degrade(gt, self.scale)
            dataset += train_mod.sample_patches(
                [(lr.data, gt.data)], self._tcfg(self.steps), self.mcfg, rng, 1)
        self.dataset = dataset
        self.init = stripesr.model.init_weights(self.mcfg)

    def _digest(self, loss: float, weights) -> bytes | None:
        h = hashlib.sha256(struct.pack("<d", loss))
        for arr in weights.params.values():
            if not np.all(np.isfinite(arr)):
                return None
            h.update(arr.tobytes())
        return h.digest()

    def _check(self, step: int, loss: float, weights) -> bool:
        if not math.isfinite(loss):
            return False
        digest = self._digest(loss, weights)
        if digest is None:
            return False
        return self.reference.setdefault(step, digest) == digest

    def _episode(self, clock: OpClock, steps: int) -> None:
        weights = stripesr.model.ModelWeights(
            config=self.mcfg,
            params={k: v.copy() for k, v in self.init.params.items()},
        )

        def on_step(step, loss, w):
            clock.stop()
            if not self._check(step, loss, w):
                clock.failed += 1
            if step < steps:
                clock.start()

        clock.start()
        try:
            _train_module().train(self.dataset, self._tcfg(steps), self.mcfg,
                                  weights=weights, on_step=on_step)
        except Exception:  # a step that crashes counts as failed
            traceback.print_exc()
            if clock.running:
                clock.stop()
                clock.failed += 1
        self.weights = weights

    def warm_up(self) -> None:
        clock = OpClock()
        self._episode(clock, 1)
        if clock.attempted != 1 or clock.failed:
            raise BenchError(f"{self.name}: warm-up step failed")

    def run_ops(self, clock: OpClock, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            self._episode(clock, self.steps)
            if time.perf_counter() >= deadline:
                return

    def quality(self) -> dict:
        """L1 loss and PSNR of the model after the fixed step count, over
        all training patches."""
        l1, psnr = [], []
        for lr, gt in self.dataset:
            sr = stripesr.model.infer(lr, self.weights).data
            l1.append(float(np.abs(sr - gt).mean()))
            psnr.append(stripesr.metrics.psnr(sr, gt))
        return {"loss_final": float(np.mean(l1)), "psnr_db": float(np.mean(psnr))}


WORKLOADS = {w.name: w for w in (TrainB4, InferCli, EvalCube)}


def block_paths() -> list[str]:
    """Block paths of every workload's model, e.g. `enc.1.hfse.0`."""
    cfgs = [TrainB4(0, Path()).mcfg,
            stripesr.model.ModelConfig(bands=InferCli.bands, scale=InferCli.scale)]
    paths = []
    for cfg in cfgs:
        for spec_path, _, _ in stripesr.model.param_specs(cfg):
            parts = spec_path.split(".")
            if parts[0] in ("enc", "dec"):
                path = ".".join(parts[:4])
                if path not in paths:
                    paths.append(path)
    return paths
