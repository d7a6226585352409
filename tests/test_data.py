"""HSC cube I/O, degradation, synthetic cubes, P6 export."""

import os
import stat
import struct
import threading

import numpy as np
import pytest

from conftest import conv2d_oracle, rng, traced_peak
from stripesr.data import (
    HsiCube,
    atomic_open,
    degrade,
    gaussian3_kernel,
    gray_to_p6,
    read_hsc,
    synth_cube,
    write_hsc,
)
from stripesr.errors import ContractViolation, FormatError


def _cube(data, lo=0.0, hi=1.0):
    return HsiCube(np.asarray(data, dtype=np.float32), value_range=(lo, hi))


class TestHscFormat:
    def test_roundtrip_bit_exact(self, tmp_cube_path):
        cube = synth_cube(0, 5, 12, 9)
        write_hsc(cube, tmp_cube_path)
        back = read_hsc(tmp_cube_path)
        np.testing.assert_array_equal(back.data, cube.data)
        assert back.value_range == cube.value_range

    def test_write_is_byte_deterministic(self, tmp_path):
        cube = synth_cube(1, 3, 8, 8)
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        write_hsc(cube, a)
        write_hsc(cube, b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_golden_1x1x1_layout(self, tmp_cube_path):
        # golden built once from the writer: 24-byte header + 4-byte payload
        write_hsc(_cube(np.full((1, 1, 1), 0.25)), tmp_cube_path)
        blob = open(tmp_cube_path, "rb").read()
        assert len(blob) == 28
        assert blob[:4] == b"HSC1"
        assert struct.unpack("<III", blob[4:16]) == (1, 1, 1)
        assert struct.unpack("<ff", blob[16:24]) == (0.0, 1.0)
        assert struct.unpack("<f", blob[24:])[0] == 0.25

    def test_bad_magic(self, tmp_cube_path):
        with open(tmp_cube_path, "wb") as fh:
            fh.write(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(FormatError):
            read_hsc(tmp_cube_path)

    def test_truncated_payload_names_byte_counts(self, tmp_cube_path):
        write_hsc(synth_cube(2, 2, 4, 4), tmp_cube_path)
        blob = open(tmp_cube_path, "rb").read()
        with open(tmp_cube_path, "wb") as fh:
            fh.write(blob[:-7])
        with pytest.raises(FormatError) as err:
            read_hsc(tmp_cube_path)
        msg = str(err.value)
        assert "128" in msg and "121" in msg  # expected vs actual bytes

    def test_one_byte_long_names_the_byte(self, tmp_cube_path):
        write_hsc(synth_cube(2, 2, 4, 4), tmp_cube_path)
        with open(tmp_cube_path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(FormatError, match="trailing bytes .* at byte 152$"):
            read_hsc(tmp_cube_path)  # 24-byte header + 128-byte payload

    def test_absurd_dims_rejected_before_reading(self, tmp_cube_path):
        # 2^31 x 2^31 x 2^31 floats; a header-only file must not be read
        with open(tmp_cube_path, "wb") as fh:
            fh.write(b"HSC1" + struct.pack("<IIIff", *(3 * [2**31]), 0.0, 1.0))
        with pytest.raises(FormatError):
            read_hsc(tmp_cube_path)

    def test_truncated_header(self, tmp_cube_path):
        with open(tmp_cube_path, "wb") as fh:
            fh.write(b"HSC1\x01\x00")
        with pytest.raises(FormatError):
            read_hsc(tmp_cube_path)

    def test_out_of_range_values_clamped_on_ingest(self, tmp_cube_path, caplog):
        data = np.array([[[-0.5, 0.5], [1.5, 1.0]]], dtype=np.float32)
        # write bypassing the clamp by building the bytes directly
        payload = data.astype("<f4").tobytes()
        with open(tmp_cube_path, "wb") as fh:
            fh.write(b"HSC1" + struct.pack("<IIIff", 1, 2, 2, 0.0, 1.0)
                     + payload)
        with caplog.at_level("WARNING"):
            cube = read_hsc(tmp_cube_path)
        assert cube.data.min() >= 0.0 and cube.data.max() <= 1.0
        assert any("clamp" in r.message for r in caplog.records)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_non_finite_payload_rejected_with_byte_offset(self, tmp_cube_path,
                                                          bad):
        data = np.full((2, 2, 3), 0.5, dtype=np.float32)
        data[1, 0, 2] = bad  # value 8 -> byte 24 + 4 * 8
        with open(tmp_cube_path, "wb") as fh:
            fh.write(b"HSC1" + struct.pack("<IIIff", 2, 2, 3, 0.0, 1.0)
                     + data.astype("<f4").tobytes())
        with pytest.raises(FormatError) as err:
            read_hsc(tmp_cube_path)
        assert "byte 56" in str(err.value)

    @pytest.mark.parametrize("lo,hi", [(0.0, np.inf), (-np.inf, 1.0),
                                       (np.nan, 1.0), (1.0, 1.0)],
                             ids=["inf-hi", "inf-lo", "nan-lo", "empty"])
    def test_bad_value_range_rejected_at_byte_16(self, tmp_cube_path, lo, hi):
        data = np.full((1, 2, 2), 0.5, dtype="<f4")
        with open(tmp_cube_path, "wb") as fh:
            fh.write(b"HSC1" + struct.pack("<IIIff", 1, 2, 2, lo, hi)
                     + data.tobytes())
        with pytest.raises(FormatError) as err:
            read_hsc(tmp_cube_path)
        assert "byte 16" in str(err.value)

    def test_invalid_value_range_rejected(self):
        # the writer refuses every range the reader refuses; the last one
        # has lo < hi in float64 but lo == hi once stored as f32
        for bad in [(1.0, 0.0), (0.0, np.inf), (-np.inf, 1.0),
                    (np.nan, 1.0), (1.0, 1.0 + 1e-10)]:
            with pytest.raises(ContractViolation):
                HsiCube(np.zeros((1, 2, 2), dtype=np.float32),
                        value_range=bad)


class TestAtomicOpen:
    def test_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.hsc", tmp_path / "link.hsc"
        target.write_bytes(b"old")
        link.symlink_to(target)
        write_hsc(synth_cube(0, 2, 4, 4), str(link))
        assert os.readlink(link) == str(target)
        assert read_hsc(str(target)).data.shape == (2, 4, 4)
        assert sorted(os.listdir(tmp_path)) == ["link.hsc", "target.hsc"]

    def test_overwrite_keeps_permission_bits(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")
        path.chmod(0o640)
        with atomic_open(str(path), "w") as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = str(tmp_path / "pipe")
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(
            target=lambda: got.append(open(fifo, "rb").read()), daemon=True)
        reader.start()
        with atomic_open(fifo) as fh:
            fh.write(b"row\n")
        reader.join(timeout=10)
        assert got == [b"row\n"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_open_descriptor_name_is_written_in_place(self, tmp_path):
        # /dev/fd/N names a file this process has open; replacing the file
        # would leave the descriptor on the unlinked old one
        path = tmp_path / "out.txt"
        with open(path, "w+b") as held:
            with atomic_open(f"/dev/fd/{held.fileno()}") as fh:
                fh.write(b"row\n")
            assert os.fstat(held.fileno()).st_ino == path.stat().st_ino
        assert path.read_bytes() == b"row\n"


class TestDegrade:
    def test_kernel_sums_to_one(self):
        assert abs(gaussian3_kernel().sum() - 1.0) < 1e-7

    def test_kernel_center_weight(self):
        # exp(0) / sum over the 3x3 grid of exp(-(i^2+j^2)/(2*0.25))
        grid = np.exp(-(np.add.outer(np.arange(-1, 2) ** 2,
                                     np.arange(-1, 2) ** 2)) / 0.5)
        want = 1.0 / grid.sum()
        assert gaussian3_kernel()[1, 1] == pytest.approx(want, rel=1e-10)
        assert want == pytest.approx(0.6193, abs=1e-4)

    def test_impulse_center_after_blur(self):
        imp = np.zeros((1, 8, 8), dtype=np.float32)
        imp[0, 4, 4] = 1.0
        out = degrade(_cube(imp), 2)
        assert out.data[0, 2, 2] == pytest.approx(gaussian3_kernel()[1, 1],
                                                  rel=1e-6)

    @pytest.mark.parametrize("scale", [2, 4, 8])
    def test_constant_cube_invariance_and_dims(self, scale):
        cube = _cube(np.full((3, 16, 16), 0.4))
        out = degrade(cube, scale)
        assert out.data.shape == (3, 16 // scale, 16 // scale)
        np.testing.assert_allclose(out.data, 0.4, rtol=1e-6)

    def test_decimation_keeps_offset_zero(self):
        # a column-ramp: sample j of the output equals blurred sample 2j
        x = np.tile(np.arange(8.0, dtype=np.float32), (1, 8, 1)) / 8.0
        out = degrade(_cube(x), 2)
        full = degrade(_cube(x), 2).data  # same op; check corner lineage
        assert out.data[0, 0, 0] == full[0, 0, 0]
        # reflect padding makes the corner a weighted average biased to col 0
        assert out.data[0, 0, 0] < out.data[0, 0, 1]

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ContractViolation):
            degrade(_cube(np.zeros((1, 9, 8))), 2)

    def test_commutes_with_band_permutation(self):
        cube = synth_cube(3, 4, 16, 16)
        perm = [2, 0, 3, 1]
        a = degrade(_cube(cube.data[perm]), 4).data
        b = degrade(cube, 4).data[perm]
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("scale", [2, 4])
    def test_matches_depthwise_conv_oracle(self, scale):
        # random values on a non-square cube: the kept samples include row 0
        # and column 0, whose blur reads the reflected border
        x = rng(5).uniform(0, 1, (3, 8, 12)).astype(np.float32)
        w = np.broadcast_to(gaussian3_kernel(), (3, 1, 3, 3))
        want = conv2d_oracle(x.astype(np.float64), w, None, (3, 3), groups=3)
        got = degrade(_cube(x), scale).data
        assert got.shape == (3, 8 // scale, 12 // scale)
        np.testing.assert_allclose(got, want[:, ::scale, ::scale], rtol=0,
                                   atol=1e-6)


class TestSynthCube:
    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(synth_cube(7, 4, 16, 16).data,
                                      synth_cube(7, 4, 16, 16).data)

    def test_values_in_unit_range(self):
        for seed in range(3):
            d = synth_cube(seed, 6, 20, 24).data
            assert d.min() >= 0.0 and d.max() <= 1.0

    def test_adjacent_band_correlation(self):
        for seed in range(3):
            d = synth_cube(seed, 8, 32, 32).data
            for i in range(7):
                r = np.corrcoef(d[i].ravel(), d[i + 1].ravel())[0, 1]
                assert r >= 0.8

    def test_spatial_structure_not_noise(self):
        # neighboring pixels must correlate strongly (smooth blobs)
        d = synth_cube(0, 2, 32, 32).data[0]
        r = np.corrcoef(d[:, :-1].ravel(), d[:, 1:].ravel())[0, 1]
        assert r > 0.9

    def test_peak_memory_one_float64_cube(self):
        # one float64 cube, normalised in place, and its float32 output;
        # the blobs and the grids add 8 + 2 float64 bands, under half a cube
        out, peak = traced_peak(lambda: synth_cube(0, 31, 64, 64))
        assert peak <= 1.5 * 31 * 64 * 64 * 8 + out.data.nbytes

    def test_tiny_dims_rejected(self):
        with pytest.raises(ContractViolation):
            synth_cube(0, 1, 2, 8)

    def test_negative_seed_rejected(self):
        with pytest.raises(ContractViolation, match="seed"):
            synth_cube(-1, 1, 8, 8)


class TestPseudoColor:
    def test_constant_band_maps_to_mid_gray(self):
        blob = gray_to_p6(np.full((2, 2), 0.5))
        pixels = np.frombuffer(blob.split(b"\n255\n", 1)[1], dtype=np.uint8)
        assert (pixels == 128).all()  # degenerate stretch

    def test_stretch_uses_full_range(self):
        data = np.array([[0.0, 0.25]])  # min-max stretch, not absolute scaling
        blob = gray_to_p6(data)
        pixels = np.frombuffer(blob.split(b"\n255\n", 1)[1], dtype=np.uint8)
        assert set(pixels) == {0, 255}

    def test_gray_to_p6(self):
        img = np.array([[0.0, 1.0], [0.5, 0.25]])
        blob = gray_to_p6(img)
        assert blob.startswith(b"P6\n2 2\n255\n")
        pixels = np.frombuffer(blob.split(b"\n255\n", 1)[1], dtype=np.uint8)
        assert pixels[:3].tolist() == [0, 0, 0]
        assert pixels[3:6].tolist() == [255, 255, 255]
