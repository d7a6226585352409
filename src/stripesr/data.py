"""Hyperspectral cube I/O, degradation simulation, synthetic cubes, P6 export.

The HSC container: magic `HSC1`, u32 bands/height/width, f32 value-range
(lo, hi), then bands*height*width little-endian f32 values, band-major
row-major. Roundtrip through write/read is byte-exact for in-range data;
out-of-range values are clamped (and logged) on ingest, and a non-finite
value, or a value range that is non-finite or has lo >= hi, is a
FormatError.

Every file the package writes goes through `atomic_open`: a regular file is
written to a temporary file beside it, renamed over it only when the write
completed. Both binary readers, `read_hsc` and `model.load_checkpoint`, read
through `read_exact` and reject trailing bytes, naming the byte.
"""

from __future__ import annotations

import contextlib
import logging
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, FormatError
from . import ops
from .tensor import Tensor, all_finite, check_nbytes

log = logging.getLogger(__name__)

HSC_MAGIC = b"HSC1"
HSC_HEADER = struct.Struct("<4sIIIff")
SCALES = (2, 4, 8)  # the super-resolution factors supported end to end


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "wb"):
    """Open `path` for writing. A regular or new file (symlinks followed) is
    written to a temporary file beside it that replaces it, keeping its mode
    bits, only if the block exits normally. Devices, FIFOs and stream names
    such as /dev/stdout or /dev/fd/N are opened in place."""
    st = os.stat(path) if os.path.exists(path) else None
    if st is not None and not stat.S_ISREG(st.st_mode) or \
            os.path.abspath(path).startswith(("/dev/", "/proc/")):
        with open(path, mode) as fh:
            yield fh
        return
    real = os.path.realpath(path)
    tmp = f"{real}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, mode)
    except OSError as exc:  # name the caller's path, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
            yield fh
        os.replace(tmp, real)
    except BaseException:
        os.remove(tmp)
        raise


def read_exact(fh, n: int, what: str) -> bytes:
    """Read `n` bytes of `what`, checked against the bytes left first, so an
    absurd declared length fails here rather than in an allocation."""
    pos = fh.tell()
    left = os.fstat(fh.fileno()).st_size - pos
    if n > left:
        raise FormatError(
            f"truncated file while reading {what} at byte {pos}:"
            f" wanted {n} bytes, got {left}"
        )
    return fh.read(n)


def _valid_value_range(lo: float, hi: float) -> bool:
    with np.errstate(over="ignore"):  # stored as f32: beyond its range is inf
        lo, hi = np.float32(lo), np.float32(hi)
    return bool(-np.inf < lo < hi < np.inf)


@dataclass
class HsiCube:
    data: np.ndarray  # (C, H, W) float32
    value_range: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 3 or min(self.data.shape) < 1:
            raise ContractViolation(f"cube must be (C,H,W), got {self.data.shape}")
        lo, hi = self.value_range
        if not _valid_value_range(lo, hi):
            raise ContractViolation(f"invalid value range ({lo}, {hi})")

    @property
    def bands(self) -> int:
        return self.data.shape[0]


def write_hsc(cube: HsiCube, path: str) -> None:
    c, h, w = cube.data.shape
    lo, hi = cube.value_range
    with atomic_open(path) as fh:
        fh.write(HSC_HEADER.pack(HSC_MAGIC, c, h, w, lo, hi))
        fh.write(cube.data.astype("<f4", copy=False).tobytes())


def read_hsc(path: str) -> HsiCube:
    with open(path, "rb") as fh:
        header = read_exact(fh, HSC_HEADER.size, "HSC header")
        magic, c, h, w, lo, hi = HSC_HEADER.unpack(header)
        if magic != HSC_MAGIC:
            raise FormatError(f"bad HSC magic {magic!r} at byte 0")
        if not _valid_value_range(lo, hi):
            raise FormatError(f"bad HSC value range ({lo}, {hi}) at byte 16")
        payload = read_exact(fh, 4 * c * h * w, "HSC payload")
        if fh.read(1):
            raise FormatError(
                f"trailing bytes after the HSC payload at byte {fh.tell() - 1}"
            )
    data = np.frombuffer(payload, dtype="<f4").reshape(c, h, w)
    if not all_finite(data):
        first = int(np.argmin(np.isfinite(data)))
        raise FormatError(
            f"non-finite HSC value at byte {HSC_HEADER.size + 4 * first}"
        )
    clipped = np.clip(data, lo, hi)
    if data.size and (data.min() < lo or data.max() > hi):
        n_clamped = int(np.count_nonzero(clipped != data))
        log.warning("clamped %d out-of-range values while loading %s", n_clamped, path)
    return HsiCube(data=clipped, value_range=(lo, hi))


def gaussian3_kernel() -> np.ndarray:
    """Normalized 3x3 Gaussian of sigma 0.5, the degradation blur; weights
    sum to 1."""
    sigma = 0.5
    ij = np.arange(-1, 2, dtype=np.float64)
    k = np.exp(-(ij[:, None] ** 2 + ij[None, :] ** 2) / (2.0 * sigma**2))
    return k / k.sum()


def degrade(cube: HsiCube, scale: int) -> HsiCube:
    """Per-band 3x3 Gaussian blur (sigma 0.5, reflect borders), a depthwise
    `ops.conv2d`, then keep samples at offsets 0, s, 2s, ..."""
    if scale not in SCALES:
        raise ContractViolation(f"scale must be one of {SCALES}")
    c, h, w = cube.data.shape
    if h % scale or w % scale:
        raise ContractViolation(f"dims {h}x{w} not divisible by scale {scale}")
    k = gaussian3_kernel().astype(np.float32)
    blurred = ops.conv2d(Tensor(cube.data),
                         Tensor(np.broadcast_to(k, (c, 1, 3, 3))), None).data
    return HsiCube(data=blurred[:, ::scale, ::scale], value_range=cube.value_range)


def synth_cube(seed: int, bands: int, height: int, width: int,
               smoothness: float = 1.0) -> HsiCube:
    """Sum of random smooth 2D Gaussians with slowly varying band profiles;
    adjacent bands correlate strongly; values normalized to [0, 1]. Built
    as one float64 cube, normalised in place and cast to float32."""
    if min(bands, height, width) < 1 or min(height, width) < 4:
        raise ContractViolation("synth_cube needs spatial dims >= 4")
    if not 0 < smoothness < np.inf:  # also rejects NaN
        raise ContractViolation(f"smoothness must be finite and > 0, got {smoothness}")
    if seed < 0:
        raise ContractViolation(f"seed must be >= 0, got {seed}")
    n_blobs = 8
    check_nbytes((max(bands, n_blobs), height, width))  # the float64 cubes
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    blobs = np.empty((n_blobs, height, width))
    try:  # a blob width whose square overflows or vanishes
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for k in range(n_blobs):
                cy, cx = rng.uniform(0, height), rng.uniform(0, width)
                sig = smoothness * rng.uniform(0.08, 0.35) * min(height, width)
                blobs[k] = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sig**2))
    except (OverflowError, FloatingPointError):
        raise ContractViolation(f"smoothness {smoothness} puts the blob widths "
                                "outside float64's range") from None
    # per-blob band profiles: slow multiplicative random walk
    prof = np.empty((n_blobs, bands))
    prof[:, 0] = rng.uniform(0.3, 1.0, size=n_blobs)
    for b in range(1, bands):
        prof[:, b] = prof[:, b - 1] * (1.0 + 0.05 * rng.standard_normal(n_blobs))
    cube = np.einsum("kb,khw->bhw", np.abs(prof), blobs)
    lo, hi = cube.min(), cube.max()
    if not hi > lo:  # blobs too narrow to reach a pixel, or too wide to vary
        raise ContractViolation(f"smoothness {smoothness} makes a constant cube")
    cube -= lo  # in place: one float64 cube, then the float32 output
    cube /= max(hi - lo, 1e-12)
    return HsiCube(data=cube.astype(np.float32), value_range=(0.0, 1.0))


def _stretch_band(band: np.ndarray) -> np.ndarray:
    lo, hi = float(band.min()), float(band.max())
    if hi == lo:
        return np.full(band.shape, 128, dtype=np.uint8)
    return np.clip((band - lo) / (hi - lo) * 255.0, 0, 255).astype(np.uint8)


def _p6(rgb: np.ndarray) -> bytes:
    """An (H, W, 3) uint8 array as a binary P6 portable pixmap."""
    h, w, _ = rgb.shape
    return f"P6\n{w} {h}\n255\n".encode() + rgb.tobytes()


def gray_to_p6(img: np.ndarray) -> bytes:
    """Min-max stretch a 2D array and emit it as a grayscale P6 pixmap."""
    g = _stretch_band(np.asarray(img, dtype=np.float64))
    return _p6(np.stack([g, g, g], axis=-1))
