"""Fidelity metrics for hyperspectral cubes: PSNR, SSIM, SAM, ERGAS.

Conventions used throughout this artifact (documented, not claimed to match
any external script): PSNR and SSIM are per-band values averaged over bands;
a zero-MSE band contributes the 99.0 dB cap; SSIM uses uniform 8x8 windows
at stride 1; SAM is the mean per-pixel spectral angle in degrees; ERGAS is
100/s * sqrt(mean_b(MSE_b / mu_b^2)) with mu_b the reference band mean.
Inputs keep their dtype: the metrics cast to float64 a band at a time, and
SAM's einsums accumulate in float64, never a whole cube at a time.

SSIM takes four window means per band, of a, b, a^2 + b^2 and ab, since the
formula reads the variances only as var_a + var_b. Each mean is a box sum of
contiguous 1-D adds over the flat (H, W) band: SSIM_WINDOW slices offset by
whole rows give the row sums, then SSIM_WINDOW slices of those offset by 1
give the window sums, so window (i, j) sits at flat index i*W + j. The last
SSIM_WINDOW - 1 entries of each row wrap onto the next row, or into a zeroed
tail at the end, and are dropped when the map is averaged. Every buffer is
one band in size, allocated once per call and reused across bands, and no
window products are materialised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericError
from .data import HsiCube

PSNR_CAP_DB = 99.0
SSIM_WINDOW = 8


def _as_cube_array(x) -> np.ndarray:
    arr = np.asarray(x.data if isinstance(x, HsiCube) else x)
    if arr.ndim != 3:
        raise ContractViolation("metrics expect (C, H, W) cubes")
    return arr


def check_pair(x, y):
    """Both cubes as arrays of their own dtype, of one shape."""
    a, b = _as_cube_array(x), _as_cube_array(y)
    if a.shape != b.shape:
        raise ContractViolation(f"shape mismatch {a.shape} vs {b.shape}")
    return a, b


def _band_mse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-band MSE, cast to float64 a band at a time, not a cube at a time."""
    return np.array([((np.asarray(ba, np.float64) - bb) ** 2).mean()
                     for ba, bb in zip(a, b)])


@dataclass
class MetricReport:
    psnr: float
    ssim: float
    sam: float
    ergas: float

    def csv_row(self) -> str:
        return f"{self.psnr},{self.ssim},{self.sam},{self.ergas}"


def _check_peak(peak: float) -> None:
    if not 0 < peak < np.inf:  # NaN fails both comparisons
        raise ContractViolation(f"peak must be positive and finite, got {peak}")


def _psnr_db(mse: np.ndarray, peak: float) -> float:
    """Mean over bands of each band's PSNR, capped at PSNR_CAP_DB."""
    _check_peak(peak)
    vals = np.where(
        mse > 0,
        10.0 * np.log10(peak**2 / np.where(mse > 0, mse, 1.0)),
        PSNR_CAP_DB,
    )
    return float(np.minimum(vals, PSNR_CAP_DB).mean())


def psnr(x, y, peak: float = 1.0) -> float:
    return _psnr_db(_band_mse(*check_pair(x, y)), peak)


def _window_means(band: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """Write the mean of every SSIM_WINDOW x SSIM_WINDOW window of the
    contiguous (H, W) `band` into `out`, window (i, j) at flat index i*W + j.

    `out` holds (H - SSIM_WINDOW + 1) * W entries; `rows` is scratch for the
    row sums, SSIM_WINDOW - 1 entries longer, whose tail stays zero so that
    the wrapped entries past each row's last window stay finite.
    """
    k, n, w = SSIM_WINDOW, out.size, band.shape[1]
    flat, acc = band.reshape(-1), rows[:n]
    np.add(flat[:n], flat[w : w + n], out=acc)
    for i in range(2, k):
        acc += flat[i * w : i * w + n]
    np.add(rows[:n], rows[1 : 1 + n], out=out)
    for j in range(2, k):
        out += rows[j : j + n]
    out /= k * k


def ssim(x, y, peak: float = 1.0) -> float:
    a, b = check_pair(x, y)
    _check_peak(peak)
    k = SSIM_WINDOW
    _, hh, ww = a.shape
    if hh < k or ww < k:
        raise ContractViolation(f"ssim needs H, W >= {k}")
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    n = (hh - k + 1) * ww
    fa, fb, ab = (np.empty((hh, ww)) for _ in range(3))
    rows = np.zeros(n + k - 1)
    mu_a, mu_b, mu_ss, mu_ab, t = (np.empty(n) for _ in range(5))
    total = 0.0
    for ba, bb in zip(a, b):
        np.copyto(fa, ba)
        np.copyto(fb, bb)
        np.multiply(fa, fb, out=ab)
        _window_means(fa, rows, mu_a)
        _window_means(fb, rows, mu_b)
        _window_means(ab, rows, mu_ab)
        fa *= fa
        fb *= fb
        fa += fb
        _window_means(fa, rows, mu_ss)
        # num = (2 mu_a mu_b + c1) * (2 cov + c2), cov = mean(ab) - mu_a mu_b
        np.multiply(mu_a, mu_b, out=t)
        mu_ab -= t
        mu_ab *= 2
        mu_ab += c2
        t *= 2
        t += c1
        t *= mu_ab
        # den = (mu_a^2 + mu_b^2 + c1) * (var_a + var_b + c2)
        mu_a *= mu_a
        mu_b *= mu_b
        mu_a += mu_b
        mu_ss -= mu_a
        mu_ss += c2
        mu_a += c1
        mu_a *= mu_ss
        t /= mu_a
        total += float(t.reshape(-1, ww)[:, : ww - k + 1].mean())
    return total / a.shape[0]


def _sam_angles(x, y):
    a, b = check_pair(x, y)
    dots = np.einsum("chw,chw->hw", a, b, dtype=np.float64)
    sna = np.einsum("chw,chw->hw", a, a, dtype=np.float64)
    snb = np.einsum("chw,chw->hw", b, b, dtype=np.float64)
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


def _ergas(ref: np.ndarray, mse: np.ndarray, scale: int) -> float:
    mu = np.array([np.asarray(band, np.float64).mean() for band in ref])
    zero = np.flatnonzero(mu == 0)
    if zero.size:
        raise NumericError(f"ergas: reference band {int(zero[0])} has zero mean")
    return float(100.0 / scale * np.sqrt((mse / mu**2).mean()))


def ergas(x_ref, y_est, scale: int) -> float:
    a, b = check_pair(x_ref, y_est)
    return _ergas(a, _band_mse(a, b), scale)


def compute_report(pred, gt, scale: int, peak: float = 1.0) -> MetricReport:
    # (x - y)^2 = (y - x)^2 bit for bit, so PSNR and ERGAS share one MSE
    a, b = check_pair(pred, gt)
    mse = _band_mse(a, b)
    return MetricReport(
        psnr=_psnr_db(mse, peak),
        ssim=ssim(a, b, peak),
        sam=sam(a, b),
        ergas=_ergas(b, mse, scale),
    )
