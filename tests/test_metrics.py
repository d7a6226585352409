"""PSNR, SSIM, SAM, ERGAS straight-line oracles and edge cases."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import rel_err, rng, ssim_oracle, traced_peak
from stripesr.data import HsiCube
from stripesr.errors import ContractViolation, NumericError
from stripesr.metrics import (
    PSNR_CAP_DB,
    MetricReport,
    _window_means,
    compute_report,
    ergas,
    psnr,
    sam,
    sam_error_map,
    ssim,
)


@pytest.mark.parametrize("peak", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("metric", [psnr, ssim, lambda a, b, peak: compute_report(a, b, 2, peak)],
                         ids=["psnr", "ssim", "report"])
def test_peak_outside_zero_to_inf_rejected(metric, peak):
    # unchecked, ssim scored -1 as 1 and NaN'd at 0 and inf, psnr gave NaN
    # at nan and the 99 dB cap at inf
    a = rng(3).random((2, 8, 8))
    with pytest.raises(ContractViolation, match="peak must be positive and finite"):
        metric(a, a * 0.5, peak=peak)


class TestPsnr:
    def test_identical_inputs_hit_cap(self):
        x = rng(0).random((3, 8, 8))
        assert psnr(x, x.copy()) == PSNR_CAP_DB == 99.0

    def test_offset_closed_form_20db(self):
        x = rng(1).random((4, 8, 8)) * 0.5
        assert psnr(x, x + 0.1, peak=1.0) == pytest.approx(20.0, abs=1e-6)

    def test_straight_line_oracle(self):
        g = rng(2)
        a = g.random((3, 6, 6))
        b = g.random((3, 6, 6))
        vals = [10 * np.log10(1.0 / ((a[c] - b[c]) ** 2).mean())
                for c in range(3)]
        assert psnr(a, b) == pytest.approx(np.mean(vals), rel=1e-9)

    def test_per_band_cap_before_mean(self):
        a = np.zeros((2, 4, 4))
        b = a.copy()
        b[1] += 0.1  # band 0 exact (capped), band 1 at 20 dB
        assert psnr(a, b) == pytest.approx((99.0 + 20.0) / 2, abs=1e-6)

    def test_peak_scaling(self):
        a = np.zeros((1, 4, 4))
        b = a + 1.0
        # MSE = 1, peak = 10 -> 10 log10(100) = 20 dB
        assert psnr(a, b, peak=10.0) == pytest.approx(20.0, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            psnr(np.zeros((1, 4, 4)), np.zeros((1, 4, 5)))

    @pytest.mark.parametrize("metric,bands", [
        (psnr, 4), (ssim, 16), (sam, 16),
        (lambda a, b: compute_report(a, b, scale=2), 16),
    ], ids=["psnr", "ssim", "sam", "compute_report"])
    def test_peak_memory_bounded_by_bands(self, metric, bands):
        # float32 cubes are cast to float64 one band (32 KiB) at a time; a
        # whole-cube cast of both would be 62 bands. SSIM's window sums and
        # SAM's per-pixel maps are a few bands each
        g = rng(3)
        a = g.random((31, 64, 64), dtype=np.float32)
        b = g.random((31, 64, 64), dtype=np.float32)
        _, peak = traced_peak(lambda: metric(a, b))
        assert peak < bands * 64 * 64 * 8


class TestSsim:
    def test_identical_inputs_are_one(self):
        x = rng(3).random((2, 10, 10))
        assert ssim(x, x.copy()) == pytest.approx(1.0, abs=1e-6)

    def test_constant_vs_textured_is_low(self):
        g = rng(4)
        x = g.random((1, 16, 16))
        y = np.full_like(x, x.mean())
        assert ssim(x, y) < 0.5

    def test_uniform_window_loop_oracle(self):
        g = rng(5)
        a = g.random((1, 9, 9))
        b = g.random((1, 9, 9))
        c1, c2 = 0.01**2, 0.03**2
        total = []
        for i in range(2):
            for j in range(2):
                wa = a[0, i : i + 8, j : j + 8]
                wb = b[0, i : i + 8, j : j + 8]
                mu_a, mu_b = wa.mean(), wb.mean()
                va = wa.var()
                vb = wb.var()
                cov = ((wa - mu_a) * (wb - mu_b)).mean()
                total.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                             / ((mu_a**2 + mu_b**2 + c1) * (va + vb + c2)))
        assert ssim(a, b) == pytest.approx(np.mean(total), rel=1e-9)

    @pytest.mark.parametrize("peak", [1.0, 0.5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [
        (1, 8, 8), (3, 9, 13), (2, 17, 10),
        # wide, tall and odd bands: a window that wraps across a row of the
        # flat layout lands in the averaged map here
        (1, 8, 30), (2, 30, 8), (1, 9, 64), (2, 64, 9),
    ])
    def test_matches_window_loop_oracle(self, shape, dtype, peak):
        g = rng(11)
        a = (peak * g.random(shape)).astype(dtype)
        b = np.clip(a + g.normal(0.0, 0.1 * peak, shape), 0.0, peak).astype(dtype)
        assert rel_err(ssim(a, b, peak), ssim_oracle(a, b, peak)) < 1e-9

    @pytest.mark.parametrize("shape", [(8, 8), (8, 21), (19, 8), (13, 30)])
    def test_window_means_match_sliding_windows(self, shape):
        x = rng(13).random(shape)
        h, w = shape[0] - 7, shape[1] - 7
        rows = np.zeros(h * shape[1] + 7)
        out = np.empty(h * shape[1])
        _window_means(x, rows, out)
        want = sliding_window_view(x, (8, 8)).mean(axis=(-2, -1))
        np.testing.assert_allclose(out.reshape(h, -1)[:, :w], want,
                                   rtol=1e-13, atol=0)

    def test_peak_memory_bounded_by_bands(self):
        # nine buffers of one 256x256 float64 band (0.5 MB) each, 4.5 MiB
        # measured; window products of all 8x8 windows would be 31.7 MB each
        g = rng(12)
        a = g.random((2, 256, 256))
        b = g.random((2, 256, 256))
        _, peak = traced_peak(lambda: ssim(a, b))
        assert peak < 6 * 2**20

    def test_too_small_window_rejected(self):
        with pytest.raises(ContractViolation):
            ssim(np.zeros((1, 4, 4)), np.zeros((1, 4, 4)))


class TestSam:
    def test_identical_inputs_zero(self):
        x = rng(6).random((5, 6, 6)) + 0.1
        assert sam(x, x.copy()) == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal_spectra_ninety_degrees(self):
        a = np.zeros((2, 3, 3))
        b = np.zeros((2, 3, 3))
        a[0] = 1.0
        b[1] = 1.0
        assert sam(a, b) == pytest.approx(90.0, abs=1e-9)

    def test_known_angle_45(self):
        a = np.zeros((2, 2, 2))
        b = np.zeros((2, 2, 2))
        a[0] = 1.0
        b[0] = 1.0
        b[1] = 1.0
        assert sam(a, b) == pytest.approx(45.0, abs=1e-9)

    def test_scale_invariance(self):
        g = rng(7)
        a = g.random((4, 5, 5)) + 0.1
        b = g.random((4, 5, 5)) + 0.1
        assert sam(a, b) == pytest.approx(sam(3.0 * a, 0.5 * b), rel=1e-9)

    def test_zero_pixels_excluded_from_mean(self):
        a = np.zeros((2, 1, 2))
        b = np.zeros((2, 1, 2))
        a[0, 0, 0] = 1.0  # pixel 0 valid
        b[1, 0, 0] = 1.0  # 90 degrees
        # pixel 1 is all-zero in both -> excluded entirely
        assert sam(a, b) == pytest.approx(90.0, abs=1e-9)

    def test_all_zero_raises(self):
        with pytest.raises(NumericError):
            sam(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))

    def test_error_map_shape_and_exclusion(self):
        a = np.zeros((2, 1, 2))
        b = np.zeros((2, 1, 2))
        a[0, 0, 0] = b[0, 0, 0] = 1.0
        m = sam_error_map(a, b)
        assert m.shape == (1, 2)
        assert m[0, 0] == 0.0  # identical spectrum
        assert m[0, 1] == 0.0  # excluded pixel reported as 0


class TestErgas:
    def test_identical_inputs_zero(self):
        x = rng(8).random((3, 4, 4)) + 0.1
        assert ergas(x, x.copy(), 4) == 0.0

    def test_single_band_closed_form(self):
        # mu = 1, MSE = 0.04, s = 4 -> 100/4 * 0.2 = 5.0
        ref = np.ones((1, 4, 4))
        est = ref + 0.2
        assert ergas(ref, est, 4) == pytest.approx(5.0, rel=1e-9)

    def test_scale_in_denominator(self):
        g = rng(9)
        a = g.random((2, 4, 4)) + 0.5
        b = g.random((2, 4, 4)) + 0.5
        assert ergas(a, b, 2) == pytest.approx(2 * ergas(a, b, 4), rel=1e-9)

    def test_zero_mean_band_raises_with_band_index(self):
        a = np.ones((3, 2, 2))
        a[1] = 0.0
        with pytest.raises(NumericError) as err:
            ergas(a, a.copy(), 2)
        assert "1" in str(err.value)


class TestReport:
    def test_csv_row_format(self):
        rep = MetricReport(psnr=30.5, ssim=0.9, sam=1.25, ergas=4.0)
        assert rep.csv_row() == "30.5,0.9,1.25,4.0"

    def test_compute_report_on_cubes(self):
        cube = HsiCube(rng(10).random((3, 12, 12)).astype(np.float32),
                       value_range=(0.0, 1.0))
        rep = compute_report(cube, cube, scale=2)
        assert rep.psnr == 99.0
        assert rep.ssim == pytest.approx(1.0, abs=1e-6)
        assert rep.sam == pytest.approx(0.0, abs=1e-6)
        assert rep.ergas == 0.0

    def test_float32_pair_scores_as_its_float64_cast(self):
        # the metrics cast band by band, and SAM's einsums accumulate in
        # float64, so skipping the whole-cube cast changes no bit
        g = rng(14)
        a = g.random((31, 24, 40), dtype=np.float32)
        b = np.clip(a + g.normal(0.0, 0.05, a.shape), 0.0, 1.0).astype(np.float32)
        a64, b64 = a.astype(np.float64), b.astype(np.float64)
        assert compute_report(a, b, scale=4) == compute_report(a64, b64, scale=4)
        assert np.array_equal(sam_error_map(a, b), sam_error_map(a64, b64))
