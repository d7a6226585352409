"""Desk-scale training loop: aligned patch sampling, L1 objective, AdamW.

Fully deterministic given seeds: the shuffle RNG, patch sampling and the
update path all use counter-free numpy generators seeded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericError
from . import ops
from .tensor import Tape, Tensor, add, scale
from .data import atomic_open
from .model import ModelConfig, ModelWeights, forward, init_weights


def default_gt_patch(scale: int) -> int:
    return 128 if scale == 8 else 64


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch: int = 8
    epochs: int = 50
    gt_patch: int | None = None  # derived from scale when None
    seed: int = 0
    weight_decay: float = 1e-4
    max_steps: int | None = None
    loss_target: float | None = None  # absolute early-stop threshold
    grad_clip: float | None = None  # max global grad norm, off by default

    def __post_init__(self):
        # reject bad settings before any patch is sampled or step is run
        checks = (
            ("lr must be finite and > 0", math.isfinite(self.lr) and self.lr > 0),
            ("weight_decay must be finite and >= 0",
             math.isfinite(self.weight_decay) and self.weight_decay >= 0),
            ("batch must be >= 1", self.batch >= 1),
            ("epochs must be >= 0", self.epochs >= 0),
            ("seed must be >= 0", self.seed >= 0),
            ("max_steps must be None or >= 1",
             self.max_steps is None or self.max_steps >= 1),
            ("grad_clip must be None or finite and > 0",
             self.grad_clip is None
             or (math.isfinite(self.grad_clip) and self.grad_clip > 0)),
            ("loss_target must be None or finite",
             self.loss_target is None or math.isfinite(self.loss_target)),
        )
        for msg, ok in checks:
            if not ok:
                raise ContractViolation(f"TrainConfig: {msg}")

    def patch_for(self, mcfg: ModelConfig) -> int:
        p = self.gt_patch if self.gt_patch is not None else default_gt_patch(mcfg.scale)
        if p % mcfg.scale or p % (2**mcfg.levels):
            raise ContractViolation(
                f"patch {p} must be divisible by scale {mcfg.scale} "
                f"and by 2^levels={2**mcfg.levels}"
            )
        return p


def sample_patches(cube_pairs, cfg: TrainConfig, mcfg: ModelConfig,
                   rng: np.random.Generator, count: int):
    """Uniform aligned crops: GT origins are multiples of the scale so the
    LR crop is exactly the GT crop divided by s."""
    s = mcfg.scale
    patch = cfg.patch_for(mcfg)
    out = []
    for _ in range(count):
        lr_cube, gt_cube = cube_pairs[rng.integers(len(cube_pairs))]
        _, gh, gw = gt_cube.shape
        if gh < patch or gw < patch:
            raise ContractViolation(
                f"cube {gh}x{gw} smaller than GT patch {patch}"
            )
        oy = int(rng.integers((gh - patch) // s + 1)) * s
        ox = int(rng.integers((gw - patch) // s + 1)) * s
        gt = gt_cube[:, oy : oy + patch, ox : ox + patch]
        lr = lr_cube[:, oy // s : (oy + patch) // s, ox // s : (ox + patch) // s]
        out.append((lr, gt))
    return out


def _grad_norm(grads) -> float:
    return math.sqrt(sum(float((g * g).sum()) for g in grads.values()))


def train(dataset, cfg: TrainConfig, mcfg: ModelConfig,
          weights: ModelWeights | None = None, on_step=None):
    """Run epochs x batches of forward -> L1 -> backward -> AdamW.

    `dataset` is a list of (lr_patch, gt_patch) arrays. Returns the final
    weights and the per-step loss curve. Stops early when `loss_target` or
    `max_steps` is hit. `on_step(step, loss, weights)` is called after each
    update when given.
    """
    if not dataset:
        raise ContractViolation("train: empty dataset")
    if weights is None:
        weights = init_weights(mcfg)
    state = ops.OptState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    shuffle_rng = np.random.default_rng(cfg.seed)
    curve: list[float] = []
    step = 0

    for _epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(dataset))
        for start in range(0, len(order), cfg.batch):
            idx = order[start : start + cfg.batch]
            tape = Tape()
            params = weights.as_tensors(tape)
            loss = None
            try:
                for i in idx:
                    lr_patch, gt_patch = dataset[i]
                    pred = forward(Tensor(lr_patch), params, mcfg)
                    item = ops.l1_loss(pred, Tensor(gt_patch))
                    loss = item if loss is None else add(loss, item)
            except NumericError as exc:
                raise NumericError(f"{exc} (at step {step})") from exc
            if len(idx) > 1:
                loss = scale(loss, 1.0 / len(idx))
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                raise NumericError(f"non-finite loss at step {step}")
            tape.backward(loss)
            grads = {k: tape.grad(t) for k, t in params.items()}
            if cfg.grad_clip is not None:
                norm = _grad_norm(grads)
                if norm > cfg.grad_clip:
                    fac = cfg.grad_clip / norm
                    grads = {k: g * fac for k, g in grads.items()}
            ops.adamw_step(weights.params, grads, state)
            curve.append(loss_val)
            step += 1
            if on_step is not None:
                on_step(step, loss_val, weights)
            if cfg.loss_target is not None and loss_val <= cfg.loss_target:
                return weights, curve
            if cfg.max_steps is not None and step >= cfg.max_steps:
                return weights, curve
    return weights, curve


def write_loss_csv(curve, path: str) -> None:
    with atomic_open(path, "w") as fh:
        fh.write("step,loss\n")
        for i, v in enumerate(curve):
            fh.write(f"{i},{v}\n")
