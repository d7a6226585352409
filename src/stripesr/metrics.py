"""Fidelity metrics for hyperspectral cubes: PSNR, SSIM, SAM, ERGAS.

Conventions used throughout this artifact (documented, not claimed to match
any external script): PSNR and SSIM are per-band values averaged over bands;
a zero-MSE band contributes the 99.0 dB cap; SSIM uses uniform 8x8 windows
at stride 1; SAM is the mean per-pixel spectral angle in degrees; ERGAS is
100/s * sqrt(mean_b(MSE_b / mu_b^2)) with mu_b the reference band mean.

SSIM's window means are box sums: for one band, SSIM_WINDOW - 1 in-place adds
of row-shifted slices, then as many of column-shifted slices, divided by the
window area. Every temporary is one band-sized array, and no window products
are materialised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericError
from .data import HsiCube

PSNR_CAP_DB = 99.0
SSIM_WINDOW = 8


def _as_cube_array(x) -> np.ndarray:
    arr = np.asarray(x.data if isinstance(x, HsiCube) else x, dtype=np.float64)
    if arr.ndim != 3:
        raise ContractViolation("metrics expect (C, H, W) cubes")
    return arr


def check_pair(x, y):
    a, b = _as_cube_array(x), _as_cube_array(y)
    if a.shape != b.shape:
        raise ContractViolation(f"shape mismatch {a.shape} vs {b.shape}")
    return a, b


@dataclass
class MetricReport:
    psnr: float
    ssim: float
    sam: float
    ergas: float

    def csv_row(self) -> str:
        return f"{self.psnr},{self.ssim},{self.sam},{self.ergas}"


def psnr(x, y, peak: float = 1.0) -> float:
    if peak <= 0:
        raise ContractViolation("peak must be positive")
    a, b = check_pair(x, y)
    mse = ((a - b) ** 2).mean(axis=(1, 2))
    vals = np.where(
        mse > 0,
        10.0 * np.log10(peak**2 / np.where(mse > 0, mse, 1.0)),
        PSNR_CAP_DB,
    )
    return float(np.minimum(vals, PSNR_CAP_DB).mean())


def _box_mean(x: np.ndarray) -> np.ndarray:
    """Mean of every SSIM_WINDOW x SSIM_WINDOW window of the 2-D band `x`."""
    k = SSIM_WINDOW
    h, w = x.shape[0] - k + 1, x.shape[1] - k + 1
    rows = x[:h].copy()
    for i in range(1, k):
        rows += x[i : i + h]
    box = rows[:, :w].copy()
    for j in range(1, k):
        box += rows[:, j : j + w]
    box /= k * k
    return box


def ssim(x, y, peak: float = 1.0) -> float:
    a, b = check_pair(x, y)
    if a.shape[1] < SSIM_WINDOW or a.shape[2] < SSIM_WINDOW:
        raise ContractViolation(f"ssim needs H, W >= {SSIM_WINDOW}")
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    total = 0.0
    for ba, bb in zip(a, b):
        mu_a = _box_mean(ba)
        mu_b = _box_mean(bb)
        var_a = _box_mean(ba * ba) - mu_a * mu_a
        var_b = _box_mean(bb * bb) - mu_b * mu_b
        cov = _box_mean(ba * bb) - mu_a * mu_b
        num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
        den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
        total += float((num / den).mean())
    return total / a.shape[0]


def _sam_angles(x, y):
    a, b = check_pair(x, y)
    dots = np.einsum("chw,chw->hw", a, b)
    sna = np.einsum("chw,chw->hw", a, a)
    snb = np.einsum("chw,chw->hw", b, b)
    valid = (sna > 0) & (snb > 0)
    # sqrt(sna*snb) instead of sqrt(sna)*sqrt(snb): for a == b the product
    # round-trips exactly, so identical cubes give cos = 1 and angle = 0
    cosang = np.clip(
        dots / np.sqrt(np.where(valid, sna * snb, 1.0)), -1.0, 1.0
    )
    theta = np.degrees(np.arccos(cosang))
    return np.where(valid, theta, 0.0), valid


def sam_error_map(x, y) -> np.ndarray:
    """Per-pixel spectral angle in degrees; excluded (zero-norm) pixels -> 0."""
    return _sam_angles(x, y)[0]


def sam(x, y) -> float:
    theta, valid = _sam_angles(x, y)
    n_valid = int(np.count_nonzero(valid))
    if n_valid == 0:
        raise NumericError("sam: every pixel has a zero spectral vector")
    return float(theta[valid].mean())


def ergas(x_ref, y_est, scale: int) -> float:
    a, b = check_pair(x_ref, y_est)
    mu = a.mean(axis=(1, 2))
    zero = np.flatnonzero(mu == 0)
    if zero.size:
        raise NumericError(f"ergas: reference band {int(zero[0])} has zero mean")
    mse = ((a - b) ** 2).mean(axis=(1, 2))
    return float(100.0 / scale * np.sqrt((mse / mu**2).mean()))


def compute_report(pred, gt, scale: int, peak: float = 1.0) -> MetricReport:
    # cast once; the metrics only read their inputs, so they share the arrays
    a, b = check_pair(pred, gt)
    return MetricReport(
        psnr=psnr(a, b, peak),
        ssim=ssim(a, b, peak),
        sam=sam(a, b),
        ergas=ergas(b, a, scale),
    )
