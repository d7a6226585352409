"""Full model assembly: bicubic residual + wavelet U-Net of LFSE/HFSE/HLFD.

Pipeline for a (C, h, w) low-resolution cube at scale s:

    X_up = bicubic(x, s)
    X0   = head(X_up)                      # C -> D channels
    X1   = LFSE_0(X0)
    for i in 1..K:   low_i, high_i = DWT(X_i)
                     H_i = HFSE_i(high_i); X_{i+1} = LFSE_i(low_i)
    cur = X_{K+1}
    for i in K..1:   cur = HLFD_i(IWT(cur, H_i))
    Y   = X_up + tail(cur)                 # D -> C channels

Odd spatial dims are reflect-padded before each DWT and cropped after the
matching IWT. A NumericError raised inside a block, or by the finiteness
check on each block's output, names the block path (`enc.1.hfse.0: ...`);
a non-finite value from a model-level op (conv, DWT, IWT, pad, crop) is
reported by the next block or by the check on the final output. Weights
live in a flat path -> array dict; the checkpoint container is the binary
HSRW format (byte-exact roundtrip).
"""

from __future__ import annotations

import json
import math
import os
import struct
import typing
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ContractViolation, FormatError, NumericError
from . import tensor as T
from . import ops
from .tensor import Tensor, Tape
from . import blocks
from .blocks import ParamView
from .data import SCALES, atomic_open
from .scan import KINDS
from .wavelet import dwt_haar, iwt_haar, WaveletPair

CKPT_MAGIC = b"HSRW"
CKPT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    bands: int  # spectral channels C
    scale: int  # spatial factor s
    hidden: int = 64  # D
    levels: int = 2  # K, wavelet U-Net depth
    stripe: int = 4  # stripe length / window size
    state: int = 16  # S6 state dimension N
    scan_kind: str = "stripe"
    blocks_per_level: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.scale not in SCALES:
            raise ContractViolation(f"scale must be one of {SCALES}")
        if self.bands < 1 or self.hidden < 1:
            raise ContractViolation("bands and hidden must be positive")
        if self.levels < 1 or self.stripe < 1 or self.blocks_per_level < 1:
            raise ContractViolation("levels, stripe and blocks_per_level must be >= 1")
        if self.scan_kind not in KINDS:
            raise ContractViolation(f"unknown scan kind {self.scan_kind!r}")
        if self.seed < 0:
            raise ContractViolation("seed must be >= 0")


@dataclass
class ModelWeights:
    config: ModelConfig
    params: dict[str, np.ndarray] = field(default_factory=dict)

    def as_tensors(self, tape: Tape | None = None) -> dict[str, Tensor]:
        if tape is None:
            return {k: Tensor(v) for k, v in self.params.items()}
        return {k: tape.leaf(v) for k, v in self.params.items()}


def param_specs(cfg: ModelConfig):
    """Ordered (path, shape, init-kind) triples for the whole model."""
    d, n, k_lv, reps = cfg.hidden, cfg.state, cfg.levels, cfg.blocks_per_level
    specs = []
    specs += blocks._conv_specs("global.head", cfg.bands, d, 3)
    for i in range(k_lv + 1):
        for j in range(reps):
            for path, shape, kind in blocks.lfse_specs(d, n):
                specs.append((f"enc.{i}.lfse.{j}.{path}", shape, kind))
        if i >= 1:
            for j in range(reps):
                for path, shape, kind in blocks.hfse_specs(3 * d, n):
                    specs.append((f"enc.{i}.hfse.{j}.{path}", shape, kind))
    for i in range(k_lv, 0, -1):
        for j in range(reps):
            for path, shape, kind in blocks.hlfd_specs(d, n):
                specs.append((f"dec.{i}.hlfd.{j}.{path}", shape, kind))
    specs += blocks._conv_specs("global.tail", d, cfg.bands, 3)
    return specs


def _init_array(shape, kind, rng: np.random.Generator) -> np.ndarray:
    if kind == "zeros":
        return np.zeros(shape, dtype=np.float32)
    if kind == "ones":
        return np.ones(shape, dtype=np.float32)
    if kind == "alpha":
        return np.full(shape, 0.5, dtype=np.float32)
    if kind == "a_log":
        d, n = shape
        row = np.log(np.arange(1, n + 1, dtype=np.float64))
        return np.broadcast_to(row, (d, n)).astype(np.float32)
    if kind == "conv":
        fan_in = int(np.prod(shape[1:]))
    elif kind == "linear":
        fan_in = shape[1]
    elif kind == "linear_rows":
        fan_in = shape[0]
    else:
        raise ContractViolation(f"unknown init kind {kind!r}")
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def init_weights(cfg: ModelConfig) -> ModelWeights:
    """Deterministic per seed: one RNG consumed in fixed spec order."""
    rng = np.random.default_rng(cfg.seed)
    params = {}
    for path, shape, kind in param_specs(cfg):
        params[path] = _init_array(shape, kind, rng)
    return ModelWeights(config=cfg, params=params)


def count_params(w: ModelWeights) -> int:
    return int(sum(a.size for a in w.params.values()))


def _pad_to_even(x: Tensor) -> tuple[Tensor, tuple[int, int]]:
    _, h, wd = x.shape
    pb, pr = h % 2, wd % 2
    if not (pb or pr):
        return x, (h, wd)
    out, fold = ops.reflect_pad(x.data, 0, pb, 0, pr)
    return T._record_unary(x, np.ascontiguousarray(out), fold), (h, wd)


def _crop(x: Tensor, dims: tuple[int, int]) -> Tensor:
    h, wd = dims
    if x.shape[1:] == (h, wd):
        return x
    pad = ((0, 0), (0, x.shape[1] - h), (0, x.shape[2] - wd))
    return T._record_unary(x, x.data[:, :h, :wd].copy(), lambda g: np.pad(g, pad))


def _stage(x: Tensor, params, prefix: str, fwd, cfg: ModelConfig) -> Tensor:
    """`cfg.blocks_per_level` blocks of `fwd`, all scanning along the same
    four orders, built once for the stage's grid."""
    orders = blocks.four_orders(cfg.scan_kind, cfg.stripe, *x.shape[1:])
    for j in range(cfg.blocks_per_level):
        path = f"{prefix}.{j}"
        try:
            x = fwd(x, ParamView(params, path + "."), orders)
        except NumericError as exc:
            raise NumericError(f"{path}: {exc}") from exc
        if not np.isfinite(x.data).all():
            raise NumericError(f"{path}: block produced non-finite values")
    return x


def forward(x_lr: Tensor, params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """Super-resolve one (C, h, w) cube to (C, s*h, s*w)."""
    if x_lr.shape[0] != cfg.bands:
        raise ContractViolation(
            f"input has {x_lr.shape[0]} bands, config expects {cfg.bands}"
        )
    if not np.all(np.isfinite(x_lr.data)):
        raise NumericError("forward: input contains non-finite values")

    x_up = ops.bicubic_resize(x_lr, cfg.scale)
    pv = ParamView(params)
    cur = ops.conv2d(x_up, pv["global.head.w"], pv["global.head.b"])
    cur = _stage(cur, params, "enc.0.lfse", blocks.lfse_forward, cfg)

    highs = []
    for i in range(1, cfg.levels + 1):
        cur, dims = _pad_to_even(cur)
        pair = dwt_haar(cur)
        h_out = _stage(pair.high, params, f"enc.{i}.hfse", blocks.hfse_forward, cfg)
        highs.append((h_out, dims))
        cur = _stage(pair.low, params, f"enc.{i}.lfse", blocks.lfse_forward, cfg)

    for i in range(cfg.levels, 0, -1):
        h_out, dims = highs[i - 1]
        y = _crop(iwt_haar(WaveletPair(low=cur, high=h_out)), dims)
        cur = _stage(y, params, f"dec.{i}.hlfd", blocks.hlfd_forward, cfg)

    residual = ops.conv2d(cur, pv["global.tail.w"], pv["global.tail.b"])
    out = T.add(x_up, residual)
    if not np.all(np.isfinite(out.data)):
        raise NumericError("forward produced non-finite values")
    return out


def infer(x_lr, weights: ModelWeights) -> Tensor:
    """Tape-free forward pass from raw weights."""
    x = x_lr if isinstance(x_lr, Tensor) else Tensor(x_lr)
    return forward(x, weights.as_tensors(), weights.config)


# ------------------------------------------------------------- FLOP model

# Flops per parameter entry per use, 2 per multiply-add. Conv weights and the
# scan's projection and skip weights are used once per pixel of their level,
# a_log three times (decay, inject, readout), the channel-attention matmuls
# once per image.
_FLOPS_PER_PIXEL = {"w": 2, "w_b": 2, "w_c": 2, "w_dt_down": 2, "w_dt_up": 2,
                    "d_skip": 2, "a_log": 6}
_FLOPS_PER_IMAGE = {"w1": 2, "w2": 2}


def estimate_flops(cfg: ModelConfig, h: int, w: int) -> int:
    """Flops for one forward pass on an (h, w) low-res input, summed over
    `param_specs`: convs, channel-attention matmuls and the selective scan.
    Normalizations, gates and the bicubic preprocessing are excluded."""
    dims = [(h * cfg.scale, w * cfg.scale)]
    for _ in range(cfg.levels):
        dims.append(tuple(-(-v // 2) for v in dims[-1]))
    total = 0
    for path, shape, _ in param_specs(cfg):
        stage, level, *_, name = path.split(".")
        size = int(np.prod(shape))
        if name in _FLOPS_PER_IMAGE:
            total += _FLOPS_PER_IMAGE[name] * size
        elif name in _FLOPS_PER_PIXEL:
            # global.* runs at HR, enc.i.* at level i, dec.i.* at level i-1
            lv = 0 if stage == "global" else int(level) - (stage == "dec")
            total += _FLOPS_PER_PIXEL[name] * size * dims[lv][0] * dims[lv][1]
    return total


# ------------------------------------------------------------- checkpoints

def save_checkpoint(weights: ModelWeights, path: str) -> None:
    cfg_bytes = json.dumps(asdict(weights.config), sort_keys=True).encode()
    with atomic_open(path) as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<I", len(cfg_bytes)))
        fh.write(cfg_bytes)
        fh.write(struct.pack("<I", len(weights.params)))
        for name, arr in weights.params.items():
            nb = name.encode()
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.astype("<f4", copy=False).tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    # check the declared length against the bytes left before reading, so an
    # absurd length fails here rather than in an allocation
    pos = fh.tell()
    left = os.fstat(fh.fileno()).st_size - pos
    if n > left:
        raise FormatError(
            f"truncated checkpoint while reading {what} at byte {pos}:"
            f" wanted {n} bytes, got {left}"
        )
    return fh.read(n)


def _parse_config(raw: bytes) -> ModelConfig:
    try:
        obj = json.loads(raw)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise FormatError(f"checkpoint config is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError("checkpoint config must be a JSON object")
    hints = typing.get_type_hints(ModelConfig)
    for key, value in obj.items():
        if key not in hints:
            raise FormatError(f"unknown checkpoint config key {key!r}")
        if type(value) is not hints[key]:  # rejects bool and float for int
            raise FormatError(
                f"checkpoint config {key!r} must be {hints[key].__name__}, got {value!r}"
            )
    try:
        return ModelConfig(**obj)
    except TypeError as exc:  # a required key is missing
        raise FormatError(f"checkpoint config: {exc}") from None


def load_checkpoint(path: str) -> ModelWeights:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CKPT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r} at byte 0")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CKPT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack("<I", _read_exact(fh, 4, "config length"))
        cfg = _parse_config(_read_exact(fh, cfg_len, "config"))
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "param count"))
        params = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "name length"))
            try:
                name = _read_exact(fh, name_len, "name").decode()
            except UnicodeDecodeError:
                raise FormatError(
                    f"parameter name is not UTF-8 at byte {fh.tell() - name_len}"
                ) from None
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, "ndim"))
            shape = struct.unpack(f"<{ndim}I", _read_exact(fh, 4 * ndim, "shape"))
            raw = _read_exact(fh, 4 * math.prod(shape), "data")
            params[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        if fh.read(1):
            raise FormatError(
                f"trailing bytes after the last parameter at byte {fh.tell() - 1}"
            )
    weights = ModelWeights(config=cfg, params=params)
    expected = {p: s for p, s, _ in param_specs(cfg)}
    got = {k: tuple(v.shape) for k, v in params.items()}
    if got != {k: tuple(v) for k, v in expected.items()}:
        raise FormatError("checkpoint parameters do not match the stored config")
    return weights
