"""Model assembly: init, forward, params/FLOPs accounting, checkpoints."""

import builtins
import errno
import json
import os
import struct
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import (ABSURD_SHAPES, KeyRecorder, absurd_shape_checkpoint,
                      checkpoint_bytes, peak_maps, reduce_mean, rng,
                      traced_peak)
from stripesr import blocks, ops
from stripesr import tensor as T
from stripesr.errors import ContractViolation, FormatError, NumericError
from stripesr.model import (
    ModelConfig,
    ModelWeights,
    count_params,
    estimate_flops,
    forward,
    infer,
    init_weights,
    load_checkpoint,
    param_specs,
    save_checkpoint,
)
from stripesr.ops import bicubic_resize
from stripesr.tensor import Tape, Tensor

MICRO = ModelConfig(bands=4, scale=2, hidden=16, levels=1, stripe=4, state=4,
                    seed=0)


class TestConfig:
    def test_defaults(self):
        cfg = ModelConfig(bands=8, scale=4)
        assert cfg.hidden == 64
        assert cfg.levels == 2
        assert cfg.stripe == 4
        assert cfg.state == 16
        assert cfg.scan_kind == "stripe"

    def test_invalid_scale(self):
        with pytest.raises(ContractViolation):
            ModelConfig(bands=8, scale=3)

    def test_invalid_levels(self):
        with pytest.raises(ContractViolation):
            ModelConfig(bands=8, scale=2, levels=0)

    def test_negative_seed(self):
        with pytest.raises(ContractViolation, match="seed"):
            ModelConfig(bands=8, scale=2, seed=-1)

    @pytest.mark.parametrize("field, value", [("state", 0), ("hidden", 72)])
    def test_invalid_state_or_odd_hlfd_width(self, field, value):
        # hidden 72 gives HLFD 72 // 8 = 9 inner channels, which it cannot halve
        with pytest.raises(ContractViolation, match=field):
            ModelConfig(bands=8, scale=2, **{field: value})


class TestInitWeights:
    def test_deterministic_per_seed(self):
        a = init_weights(MICRO)
        b = init_weights(MICRO)
        assert a.params.keys() == b.params.keys()
        assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_seed_changes_weights(self):
        a = init_weights(MICRO)
        b = init_weights(ModelConfig(bands=4, scale=2, hidden=16, levels=1,
                                     stripe=4, state=4, seed=1))
        assert any(not np.array_equal(a.params[k], b.params[k])
                   for k in a.params)

    def test_alpha_initialized_to_half(self):
        w = init_weights(MICRO)
        alphas = [v for k, v in w.params.items() if k.endswith(".alpha")]
        assert alphas and all(a[0] == 0.5 for a in alphas)

    def test_layernorm_affine_identity(self):
        w = init_weights(MICRO)
        for k, v in w.params.items():
            if k.endswith(".gamma"):
                np.testing.assert_array_equal(v, np.ones_like(v))
            if k.endswith(".beta"):
                np.testing.assert_array_equal(v, np.zeros_like(v))

    def test_a_log_is_log_spaced_states(self):
        w = init_weights(MICRO)
        logs = [v for k, v in w.params.items() if k.endswith(".a_log")]
        assert logs
        n = logs[0].shape[1]
        for v in logs:
            np.testing.assert_allclose(
                v, np.broadcast_to(np.log(np.arange(1, n + 1)), v.shape),
                rtol=1e-6)

    def test_golden_param_count(self):
        # frozen from the first verified run; catches silent spec drift
        cfg = ModelConfig(bands=8, scale=4, hidden=64, levels=2, stripe=4,
                          state=16, seed=0)
        assert count_params(init_weights(cfg)) == 298_696

    def test_single_conv_param_count(self):
        # a 3x3 conv 1->1 with bias is 10 params; check via the enumerator
        specs = dict((name, shape) for name, shape, _ in param_specs(MICRO))
        w_shape = specs["global.tail.w"]
        b_shape = specs["global.tail.b"]
        assert int(np.prod(w_shape)) + int(np.prod(b_shape)) == \
            16 * 4 * 9 + 4

    def test_param_count_invariant_under_scan_kind(self):
        counts = {
            kind: count_params(init_weights(
                ModelConfig(bands=4, scale=2, hidden=16, levels=1, stripe=4,
                            state=4, scan_kind=kind)))
            for kind in ("stripe", "raster", "window")
        }
        assert len(set(counts.values())) == 1


class TestForward:
    def test_output_shape_16_to_64(self):
        cfg = ModelConfig(bands=8, scale=4, hidden=16, levels=2, stripe=4,
                          state=4)
        out = infer(rng(0).random((8, 16, 16)).astype(np.float32),
                    init_weights(cfg))
        assert out.shape == (8, 64, 64)

    def test_zero_tail_equals_bicubic_bit_exact(self):
        w = init_weights(MICRO)
        w.params["global.tail.w"][:] = 0.0
        w.params["global.tail.b"][:] = 0.0
        x = rng(1).random((4, 10, 10)).astype(np.float32)
        out = infer(x, w)
        up = bicubic_resize(Tensor(x), MICRO.scale)
        np.testing.assert_array_equal(out.data, up.data)

    def test_odd_spatial_dims(self):
        out = infer(rng(2).random((4, 9, 7)).astype(np.float32),
                    init_weights(MICRO))
        assert out.shape == (4, 18, 14)

    def test_untaped_infer_peak_memory(self):
        # the default model at HR 256: finished maps and each block's input
        # are dropped, X_up is recomputed, conv2d pads row blocks into its
        # output and ss2d scans in place, so the peak, in enc.0's scan
        # merge, stays below 3 HR maps of 64 channels
        cfg = ModelConfig(bands=31, scale=4)
        weights = init_weights(cfg)
        x = rng(8).random((31, 64, 64)).astype(np.float32)
        out, maps = peak_maps(lambda: infer(x, weights), 256, 256)
        assert out.shape == (31, 256, 256)
        assert maps < 3.0

    def test_untaped_infer_on_odd_dims_matches_taped(self):
        # 31x33x35 pads and crops at both levels; dropping references must
        # not change a bit against the taped forward, which keeps them all
        cfg = ModelConfig(bands=31, scale=2, hidden=16, levels=2, state=4)
        weights = init_weights(cfg)
        x = rng(9).random((31, 33, 35)).astype(np.float32)
        taped = forward(Tensor(x), weights.as_tensors(Tape()), cfg)
        out = infer(x, weights)
        assert out.shape == (31, 66, 70)
        np.testing.assert_array_equal(out.data, taped.data)

    def test_band_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            infer(np.zeros((3, 8, 8), dtype=np.float32), init_weights(MICRO))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_input_rejected(self, bad):
        x = np.zeros((4, 8, 8), dtype=np.float32)
        x[1, 2, 3] = bad
        with pytest.raises(NumericError,
                           match="forward: input contains non-finite values"):
            infer(x, init_weights(MICRO))

    def test_forward_deterministic(self):
        w = init_weights(MICRO)
        x = rng(3).random((4, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(infer(x, w).data, infer(x, w).data)

    def test_golden_forward_checksum(self):
        # regression golden from the first verified run (abs-sum and mean)
        w = init_weights(MICRO)
        x = np.random.default_rng(123).random((4, 8, 8), dtype=np.float32)
        out = infer(x, w).data
        assert float(np.abs(out).sum()) == pytest.approx(456.4818115234375,
                                                         abs=5e-3)
        assert float(out.mean()) == pytest.approx(0.4448709487915039,
                                                  abs=1e-5)

    @pytest.mark.parametrize("key", [
        "global.head.b",
        "global.tail.b",
        "enc.0.lfse.0.vssm.s6.0.a_log",
        "dec.1.hlfd.0.fuse.b",
    ])
    def test_micro_end_to_end_gradient(self, key):
        # D=8, K=1, C=4, 8x8 input, s=2, all math in float64; the gradient
        # is taken w.r.t. weights, the quantity training consumes (the input
        # itself only enters through the constant bicubic baseline)
        cfg = ModelConfig(bands=4, scale=2, hidden=8, levels=1, stripe=4,
                          state=2, seed=0)
        raw = {k: v.astype(np.float64)
               for k, v in init_weights(cfg).params.items()}
        x = Tensor(rng(4).random((4, 8, 8)), dtype=np.float64)

        def f(t):
            params = {k: (t if k == key else Tensor(v, dtype=np.float64))
                      for k, v in raw.items()}
            return reduce_mean(T.sigmoid(forward(x, params, cfg)))

        assert T.grad_check(f, raw[key].copy(), eps=1e-4) < 2e-3

    @pytest.mark.parametrize("key", ["global.head.b", "dec.2.hlfd.0.fuse.b"])
    def test_odd_dims_gradient_through_pad_and_crop(self, key):
        # a 5x3 input at scale 2 is 10x6; its level-1 band, 5x3, is padded to
        # 6x4 before the second DWT and cropped on both axes after its IWT
        cfg = ModelConfig(bands=4, scale=2, hidden=8, levels=2, stripe=4,
                          state=2, seed=0)
        raw = {k: v.astype(np.float64)
               for k, v in init_weights(cfg).params.items()}
        x = Tensor(rng(6).random((4, 5, 3)), dtype=np.float64)

        def f(t):
            params = {k: (t if k == key else Tensor(v, dtype=np.float64))
                      for k, v in raw.items()}
            return reduce_mean(T.sigmoid(forward(x, params, cfg)))

        assert T.grad_check(f, raw[key].copy(), eps=1e-4) < 2e-3

    @pytest.mark.parametrize("faults,message", [
        # the head conv runs outside the block; the check on its output
        # names it before the block's S6 sees the NaN
        ({"enc.1.hfse.0.head.w": np.nan},
         "enc.1.hfse.0: head conv produced non-finite values"),
        # the NaN starts in this block's own S6, which names token and entry
        ({"enc.1.hfse.0.vssm.s6.0.a_log": np.nan},
         "enc.1.hfse.0: s6 scan produced non-finite values at token 0 "
         "of batch entry 0"),
        # the NaN leaves enc.0.lfse.0 through its tail conv, before any S6
        # sees it; the output check blames this block, not enc.1.hfse.0
        ({"enc.0.lfse.0.tail.w": np.nan}, "enc.0.lfse.0: block produced non-finite"),
        # the model-level ops name themselves, not the next block's head
        ({"global.head.w": np.nan}, "global.head: conv produced non-finite values"),
        ({"global.tail.w": np.nan}, "global.tail: conv produced non-finite values"),
        # finite outputs of 3e38 whose Haar sums overflow float32
        ({"enc.0.lfse.0.tail.b": 3e38}, "enc.1: dwt produced non-finite values"),
        ({"enc.1.lfse.0.tail.b": 3e38, "enc.1.hfse.0.tail.b": 3e38},
         "dec.1: iwt produced non-finite values"),
    ], ids=["in-block-s6", "s6-origin", "block-output", "global-head",
            "global-tail", "dwt-overflow", "iwt-overflow"])
    def test_non_finite_value_names_block_path(self, faults, message):
        w = init_weights(MICRO)
        for key, value in faults.items():
            w.params[key][:] = value
        x = rng(7).random((4, 8, 8)).astype(np.float32)
        with pytest.raises(NumericError) as err:
            infer(x, w)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("cfg,count", [
        (MICRO, 197),
        (ModelConfig(bands=4, scale=2, hidden=16, levels=2, stripe=4, state=4,
                     scan_kind="window"), 344),
    ], ids=["micro", "levels2-window"])
    def test_forward_reads_exactly_the_specced_params(self, cfg, count):
        # a spec no forward reads, or a read of an unspecced name, fails
        params = KeyRecorder(init_weights(cfg).as_tensors())
        forward(Tensor(rng(8).random((4, 8, 8))), params, cfg)
        assert params.read == {path for path, _, _ in param_specs(cfg)}
        assert len(params.read) == count


class TestFlops:
    def test_estimate_positive_and_monotone_in_area(self):
        small = estimate_flops(MICRO, 8, 8)
        large = estimate_flops(MICRO, 16, 16)
        assert 0 < small < large

    def test_estimate_equals_counted_forward_on_odd_dims(self, monkeypatch):
        # count every conv2d, ss2d and channel-attention call of a real
        # forward; 5x7 at scale 2 pads before each DWT and crops after IWT
        cfg = ModelConfig(bands=4, scale=2, hidden=16, levels=2, stripe=4,
                          state=4)
        counted = []
        conv2d, ss2d, attn = ops.conv2d, blocks.ss2d, ops.channel_attention

        def count_conv(x, w, b, *rest):
            out = conv2d(x, w, b, *rest)
            c_out, c_in_g, kh, kw = w.shape
            counted.append(2 * kh * kw * c_in_g * c_out
                           * out.shape[1] * out.shape[2])
            return out

        def count_ss2d(x, params, orders):
            c, h, w = x.shape
            for p in params:
                r, n = p.w_dt_down.shape[0], p.n
                # delta/B/C projections, then decay, inject, readout, skip
                per_token = 2 * (2 * r * c + 2 * c * n) + 3 * 2 * c * n + 2 * c
                counted.append(h * w * per_token)
            return ss2d(x, params, orders)

        def count_attn(x, w1, w2, *rest):
            counted.append(2 * (w1.size + w2.size))
            return attn(x, w1, w2, *rest)

        monkeypatch.setattr(ops, "conv2d", count_conv)
        monkeypatch.setattr(blocks, "ss2d", count_ss2d)
        monkeypatch.setattr(ops, "channel_attention", count_attn)
        infer(rng(5).random((4, 5, 7)).astype(np.float32), init_weights(cfg))
        assert sum(counted) == estimate_flops(cfg, 5, 7)


class _DiskFull:
    """A writable file that raises ENOSPC once `room` bytes are written."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, b):
        if len(b) > self.room:
            self.fh.write(b[: self.room])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.room -= len(b)
        return self.fh.write(b)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestCheckpoint:
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path,
                                                   monkeypatch):
        # the disk fills halfway through overwriting a saved checkpoint
        path = tmp_path / "m.hsrw"
        save_checkpoint(init_weights(MICRO), str(path))
        before = path.read_bytes()
        real_open = builtins.open

        def full_disk_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return _DiskFull(fh, len(before) // 2) if "w" in mode else fh

        monkeypatch.setattr(builtins, "open", full_disk_open)
        with pytest.raises(OSError):
            save_checkpoint(init_weights(replace(MICRO, seed=1)), str(path))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.hsrw"]  # no temp file left

    def test_roundtrip_bit_exact(self, tmp_path):
        w = init_weights(MICRO)
        path = str(tmp_path / "m.hsrw")
        save_checkpoint(w, path)
        loaded = load_checkpoint(path)
        assert loaded.config == MICRO
        assert all(np.array_equal(w.params[k], loaded.params[k])
                   for k in w.params)

    def test_save_is_byte_deterministic(self, tmp_path):
        w = init_weights(MICRO)
        p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
        save_checkpoint(w, p1)
        save_checkpoint(w, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_magic_bytes(self, tmp_path):
        path = str(tmp_path / "m.hsrw")
        save_checkpoint(init_weights(MICRO), path)
        assert open(path, "rb").read(4) == b"HSRW"

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + b"\0" * 64)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncation_reports_offset(self, tmp_path):
        src = str(tmp_path / "m.hsrw")
        save_checkpoint(init_weights(MICRO), src)
        blob = open(src, "rb").read()
        cut = str(tmp_path / "cut")
        with open(cut, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(FormatError) as err:
            load_checkpoint(cut)
        assert "byte" in str(err.value)

    def test_shape_tamper_rejected(self, tmp_path):
        src = str(tmp_path / "m.hsrw")
        w = init_weights(MICRO)
        save_checkpoint(w, src)
        blob = bytearray(open(src, "rb").read())
        # corrupt the parameter-count field right after magic+version+config
        cfg_len = struct.unpack_from("<I", blob, 8)[0]
        struct.pack_into("<I", blob, 12 + cfg_len, 1)
        bad = str(tmp_path / "bad")
        with open(bad, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(bad)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "m.hsrw"
        save_checkpoint(init_weights(MICRO), str(path))
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 4, 2)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="unsupported checkpoint version 2"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("tamper", ["renamed", "transposed"])
    def test_names_and_shapes_checked_after_the_count(self, tmp_path, tamper):
        # the right parameter count and sizes, so only the final
        # name-and-shape comparison can refuse the file
        params = init_weights(MICRO).params
        if tamper == "renamed":
            params = {("global.head.x" if k == "global.head.w" else k): v
                      for k, v in params.items()}
        else:
            name = next(k for k, v in params.items()
                        if v.ndim == 2 and v.shape[0] != v.shape[1])
            params = {**params, name: params[name].T}
        bad = tmp_path / "bad.hsrw"
        bad.write_bytes(checkpoint_bytes(asdict(MICRO), params))
        with pytest.raises(FormatError, match="do not match the stored config"):
            load_checkpoint(str(bad))

    @pytest.mark.parametrize("shape", ABSURD_SHAPES, ids=["2d", "3d"])
    def test_absurd_shape_rejected_before_reading(self, tmp_path, shape):
        # 4 * 2^62 bytes overflows a read size, and 2^93 elements wrap an
        # int64 count to 0
        bad = str(tmp_path / "bad")
        with open(bad, "wb") as fh:
            fh.write(absurd_shape_checkpoint(shape))
        with pytest.raises(FormatError):
            load_checkpoint(bad)

    @pytest.mark.parametrize("shape", ABSURD_SHAPES, ids=["2d", "3d"])
    def test_absurd_shape_with_the_right_count_rejected(self, tmp_path, shape):
        # with the count the config declares, the shape itself is refused
        blob = bytearray(absurd_shape_checkpoint(shape))
        cfg_len = struct.unpack_from("<I", blob, 8)[0]
        count = len(param_specs(ModelConfig(bands=4, scale=2)))
        struct.pack_into("<I", blob, 12 + cfg_len, count)
        bad = tmp_path / "bad"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError) as err:
            load_checkpoint(str(bad))
        assert "do not match" not in str(err.value)

    def test_huge_levels_rejected_from_the_count(self, tmp_path):
        # param_specs grows with levels; a 2000-level config declaring no
        # parameters is refused before they are built
        bad = tmp_path / "bad"
        bad.write_bytes(checkpoint_bytes({**asdict(MICRO), "levels": 2000}, {}))

        def load():
            with pytest.raises(FormatError, match="do not match the stored config"):
                load_checkpoint(str(bad))

        _, peak = traced_peak(load)
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("config,name,tail", [
        (b"{not json", None, b""),
        (b"\xff\xfe", None, b""),
        (b"[1, 2]", None, b""),
        (json.dumps({**asdict(MICRO), "zzz": 1}).encode(), None, b""),
        (json.dumps({**asdict(MICRO), "bands": "4"}).encode(), None, b""),
        (json.dumps({**asdict(MICRO), "hidden": 16.0}).encode(), None, b""),
        (json.dumps({**asdict(MICRO), "levels": True}).encode(), None, b""),
        (json.dumps({"scale": 2}).encode(), None, b""),
        (json.dumps({**asdict(MICRO), "scale": 3}).encode(), None, b""),
        (json.dumps({**asdict(MICRO), "hidden": 0}).encode(), None, b""),
        (json.dumps({**asdict(MICRO), "scan_kind": "zigzag"}).encode(), None,
         b""),
        (json.dumps({**asdict(MICRO), "state": 0}).encode(), None, b""),
        (json.dumps({**asdict(MICRO), "hidden": 72}).encode(), None, b""),
        (json.dumps({**asdict(MICRO), "blocks_per_level": 2}).encode(), None,
         b""),
        (json.dumps({**asdict(MICRO), "blocks_per_level": True}).encode(),
         None, b""),
        (None, b"\xff\xfe", b""),
        (None, None, b"\0"),
    ], ids=["bad-json", "bad-utf8", "not-object", "unknown-key",
            "str-for-int", "float-for-int", "bool-for-int", "missing-key",
            "scale-3", "hidden-0", "unknown-kind", "state-0", "hidden-72",
            "retired-key-2", "retired-key-true", "bad-utf8-name",
            "trailing-bytes"])
    def test_malformed_config_or_name_rejected(self, tmp_path, config, name,
                                               tail):
        src = str(tmp_path / "m.hsrw")
        save_checkpoint(init_weights(MICRO), src)
        blob = open(src, "rb").read()
        cfg_len = struct.unpack_from("<I", blob, 8)[0]
        head, body = blob[: 12 + cfg_len], blob[12 + cfg_len:]
        if config is not None:
            head = blob[:8] + struct.pack("<I", len(config)) + config
        if name is not None:  # overwrite the first parameter name's bytes
            body = body[:8] + name + body[8 + len(name):]
        bad = str(tmp_path / "bad")
        with open(bad, "wb") as fh:
            fh.write(head + body + tail)
        with pytest.raises(FormatError) as err:
            load_checkpoint(bad)
        if config is not None:
            assert "checkpoint config" in str(err.value)
        if tail:
            assert f"byte {len(blob)}" in str(err.value)

    def test_config_with_retired_blocks_per_level_loads(self, tmp_path):
        # every file written while ModelConfig had this field stores it as 1
        src = str(tmp_path / "m.hsrw")
        w = init_weights(MICRO)
        save_checkpoint(w, src)
        blob = open(src, "rb").read()
        cfg_len = struct.unpack_from("<I", blob, 8)[0]
        config = json.dumps({**asdict(MICRO), "blocks_per_level": 1},
                            sort_keys=True).encode()
        old = str(tmp_path / "old.hsrw")
        with open(old, "wb") as fh:
            fh.write(blob[:8] + struct.pack("<I", len(config)) + config
                     + blob[12 + cfg_len:])
        loaded = load_checkpoint(old)
        assert loaded.config == MICRO
        assert all(np.array_equal(w.params[k], loaded.params[k])
                   for k in w.params)
