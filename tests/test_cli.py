"""CLI surface: commands run in-process through main(argv)."""

import importlib
import os
import stat
import struct
from dataclasses import asdict

import numpy as np
import pytest

from conftest import ABSURD_SHAPES, absurd_shape_checkpoint, checkpoint_bytes
from stripesr import cli
from stripesr.data import read_hsc, synth_cube, write_hsc
from stripesr.model import ModelConfig, init_weights, save_checkpoint

# the package re-exports `train` the function under the module's name
model_module = importlib.import_module("stripesr.model")
train_module = importlib.import_module("stripesr.train")
scan_module = importlib.import_module("stripesr.scan")


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def gt_path(tmp_path):
    path = str(tmp_path / "gt.hsc")
    assert run("synth", "--seed", "0", "--bands", "4", "--size", "32",
               "--out", path) == 0
    return path


class TestHelp:
    def test_top_level_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("synth", "degrade", "train", "infer", "eval",
                    "scan-viz"):
            assert cmd in out

    @pytest.mark.parametrize("cmd,flags", [
        ("synth", ["--seed", "--bands", "--size", "--smoothness", "--out"]),
        ("degrade", ["--in", "--scale", "--out"]),
        ("train", ["--gt", "--scale", "--steps", "--ckpt", "--hidden",
                   "--levels", "--stripe", "--state", "--scan", "--seed",
                   "--lr", "--batch", "--patch"]),
        ("infer", ["--in", "--ckpt", "--out"]),
        ("eval", ["--pred", "--gt", "--scale", "--csv", "--sam-map"]),
        ("scan-viz", ["--height", "--width", "--stripe", "--kind",
                      "--direction", "--out"]),
    ])
    def test_subcommand_help_lists_every_flag_with_default(self, capsys, cmd,
                                                           flags):
        with pytest.raises(SystemExit):
            run(cmd, "--help")
        out = capsys.readouterr().out
        for flag in flags:
            assert flag in out
        if cmd in ("train", "scan-viz"):
            assert "{stripe,raster,window}" in out
        if cmd not in ("degrade", "infer"):  # all their flags are required
            assert "default" in out

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2


class TestSynthDegrade:
    def test_synth_writes_valid_cube(self, gt_path):
        cube = read_hsc(gt_path)
        assert cube.data.shape == (4, 32, 32)
        assert 0.0 <= cube.data.min() and cube.data.max() <= 1.0

    def test_synth_idempotent_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.hsc"), str(tmp_path / "b.hsc")
        run("synth", "--seed", "3", "--bands", "2", "--size", "16",
            "--out", a)
        run("synth", "--seed", "3", "--bands", "2", "--size", "16",
            "--out", b)
        assert open(a, "rb").read() == open(b, "rb").read()

    # the two extremes' squared blob widths overflow or vanish (1e160,
    # 1e300, 1e-200, 1e-300), or their blobs miss every pixel (1e-150)
    @pytest.mark.parametrize("smoothness", ["nan", "0", "1e160", "1e300", "1e-150",
                                            "1e-200", "1e-300"])
    def test_synth_bad_smoothness_exit_2(self, tmp_path, capsys, smoothness):
        out = tmp_path / "x.hsc"
        assert run("synth", "--seed", "0", "--bands", "2", "--size", "16",
                   "--smoothness", smoothness, "--out", str(out)) == 2
        assert "smoothness" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["synth", "train"])
    def test_negative_seed_exit_2(self, gt_path, tmp_path, capsys, cmd):
        out = tmp_path / "out.bin"
        argv = {"synth": ["synth", "--bands", "2", "--size", "16",
                          "--out", str(out)],
                "train": ["train", "--gt", gt_path, "--scale", "2",
                          "--steps", "1", "--ckpt", str(out)]}[cmd]
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--seed", "-1")
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_degrade_halves_dims(self, gt_path, tmp_path):
        out = str(tmp_path / "lr.hsc")
        assert run("degrade", "--in", gt_path, "--scale", "2",
                   "--out", out) == 0
        assert read_hsc(out).data.shape == (4, 16, 16)

    def test_degrade_missing_input_exit_2(self, tmp_path, capsys):
        code = run("degrade", "--in", str(tmp_path / "nope.hsc"),
                   "--scale", "2", "--out", str(tmp_path / "x.hsc"))
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_degrade_indivisible_dims_exit_2(self, tmp_path):
        src = str(tmp_path / "odd.hsc")
        write_hsc(synth_cube(0, 2, 9, 9), src)
        assert run("degrade", "--in", src, "--scale", "2",
                   "--out", str(tmp_path / "x.hsc")) == 2


class TestTrainInferEval:
    def test_full_pipeline(self, gt_path, tmp_path, capsys):
        ckpt = str(tmp_path / "m.hsrw")
        lr = str(tmp_path / "lr.hsc")
        sr = str(tmp_path / "sr.hsc")
        csv = str(tmp_path / "m.csv")
        loss_csv = str(tmp_path / "loss.csv")
        assert run("train", "--gt", gt_path, "--scale", "2", "--steps", "3",
                   "--ckpt", ckpt, "--hidden", "16", "--levels", "1",
                   "--state", "4", "--patch", "32", "--patches", "2",
                   "--batch", "1", "--loss-csv", loss_csv) == 0
        assert run("degrade", "--in", gt_path, "--scale", "2",
                   "--out", lr) == 0
        assert run("infer", "--in", lr, "--ckpt", ckpt, "--out", sr) == 0
        assert read_hsc(sr).data.shape == (4, 32, 32)
        assert run("eval", "--pred", sr, "--gt", gt_path, "--scale", "2",
                   "--csv", csv) == 0
        row = open(csv).read().strip().split(",")
        assert len(row) == 4
        assert all(np.isfinite(float(v)) for v in row)
        lines = open(loss_csv).read().splitlines()
        assert lines[0] == "step,loss" and len(lines) == 4

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_train_non_finite_lr_exit_2(self, gt_path, tmp_path, capsys, lr,
                                        monkeypatch):
        # the config is rejected before any forward pass runs
        def no_forward(*args):
            raise AssertionError("forward ran before --lr was checked")

        monkeypatch.setattr(model_module, "forward", no_forward)
        monkeypatch.setattr(train_module, "forward", no_forward)
        ckpt = tmp_path / "m.hsrw"
        assert run("train", "--gt", gt_path, "--scale", "2", "--steps", "1",
                   "--ckpt", str(ckpt), "--hidden", "8", "--levels", "1",
                   "--state", "4", "--patch", "16", "--patches", "1",
                   "--batch", "1", "--lr", lr) == 2
        assert "lr must be finite" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_train_update_to_non_finite_weights_exit_1(self, gt_path, tmp_path,
                                                       capsys):
        # lr 1e308 overflows every float32 update on the first step; no
        # checkpoint may be written
        ckpt = tmp_path / "m.hsrw"
        assert run("train", "--gt", gt_path, "--scale", "2", "--steps", "1",
                   "--ckpt", str(ckpt), "--hidden", "16", "--levels", "1",
                   "--patch", "8", "--patches", "1", "--batch", "1",
                   "--lr", "1e308") == 1
        err = capsys.readouterr().err
        assert "error: adamw_step: the update made global.head.w non-finite" in err
        assert "(at step 0)" in err
        assert not ckpt.exists()

    @pytest.mark.parametrize("levels", ["15000", "1000000", str(2**64)])
    def test_train_huge_levels_exit_2(self, gt_path, tmp_path, capsys,
                                      levels):
        # the patch check never builds the levels-bit integer 2^levels
        ckpt = tmp_path / "m.hsrw"
        assert run("train", "--gt", gt_path, "--scale", "2", "--steps", "1",
                   "--ckpt", str(ckpt), "--levels", levels) == 2
        assert capsys.readouterr().err == (
            f"error: patch 64 must be divisible by scale 2 and by 2^{levels}\n")
        assert not ckpt.exists()

    def test_infer_stripe_past_int64_exit_0(self, gt_path, tmp_path):
        # a stored stripe of 2^63 scans each grid like one spanning it:
        # 64 * 64 at HR, the largest grid
        outs = []
        for stripe in (2**63, 64 * 64):
            cfg = ModelConfig(bands=4, scale=2, hidden=16, levels=1,
                              stripe=stripe, state=4)
            ckpt, out = str(tmp_path / "m.hsrw"), tmp_path / f"{stripe}.hsc"
            save_checkpoint(init_weights(cfg), ckpt)
            assert run("infer", "--in", gt_path, "--ckpt", ckpt,
                       "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_train_defaults_are_the_config_defaults(self, tmp_path,
                                                    monkeypatch):
        # the benchmark's infer-cli workload builds ModelConfig(bands, scale)
        # as the model `train` makes when given only the required flags
        seen = {}

        def fake_train(dataset, tcfg, mcfg, on_step=None):
            seen.update(tcfg=tcfg, mcfg=mcfg)
            return init_weights(mcfg), [0.0]

        monkeypatch.setattr(cli, "run_train", fake_train)
        gt = str(tmp_path / "gt.hsc")
        assert run("synth", "--bands", "4", "--size", "64", "--out", gt) == 0
        assert run("train", "--gt", gt, "--scale", "2",
                   "--ckpt", str(tmp_path / "m.hsrw")) == 0
        assert seen["mcfg"] == ModelConfig(bands=4, scale=2)
        defaults = train_module.TrainConfig()
        assert seen["tcfg"].lr == defaults.lr
        assert seen["tcfg"].batch == defaults.batch

    def test_eval_sam_map_is_p6(self, gt_path, tmp_path):
        out = str(tmp_path / "map.ppm")
        assert run("eval", "--pred", gt_path, "--gt", gt_path,
                   "--scale", "2", "--csv", str(tmp_path / "c.csv"),
                   "--sam-map", out) == 0
        assert open(out, "rb").read(2) == b"P6"

    def test_eval_csv_to_devnull_writes_in_place(self, gt_path, monkeypatch):
        # /dev/null is a device: it is written, never replaced by a file
        real_replace = os.replace

        def replace_regular_only(src, dst):
            assert not os.path.exists(dst) or stat.S_ISREG(os.stat(dst).st_mode)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_regular_only)
        assert run("eval", "--pred", gt_path, "--gt", gt_path,
                   "--scale", "2", "--csv", os.devnull) == 0
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_infer_corrupt_checkpoint_exit_2(self, gt_path, tmp_path):
        bad = str(tmp_path / "bad.hsrw")
        with open(bad, "wb") as fh:
            fh.write(b"NOTA" * 16)
        assert run("infer", "--in", gt_path, "--ckpt", bad,
                   "--out", str(tmp_path / "x.hsc")) == 2

    def test_infer_malformed_config_exit_2(self, gt_path, tmp_path, capsys):
        bad = str(tmp_path / "bad.hsrw")
        config = b'{"zzz": 1}'
        with open(bad, "wb") as fh:
            fh.write(b"HSRW" + struct.pack("<II", 1, len(config)) + config
                     + struct.pack("<I", 0))
        assert run("infer", "--in", gt_path, "--ckpt", bad,
                   "--out", str(tmp_path / "x.hsc")) == 2
        assert "zzz" in capsys.readouterr().err

    def test_infer_state_0_checkpoint_exit_2(self, gt_path, tmp_path, capsys):
        # every parameter fits the state-0 config (the S6 (d, N) matrices
        # are (d, 0)), so only the config check can stop the forward pass
        cfg = ModelConfig(bands=4, scale=2, hidden=8, levels=1, state=1)
        params = {k: v[:, :0] if k.endswith(("a_log", "w_b", "w_c")) else v
                  for k, v in init_weights(cfg).params.items()}
        bad = tmp_path / "state0.hsrw"
        bad.write_bytes(checkpoint_bytes({**asdict(cfg), "state": 0}, params))
        assert run("infer", "--in", gt_path, "--ckpt", str(bad),
                   "--out", str(tmp_path / "x.hsc")) == 2
        assert "checkpoint config" in capsys.readouterr().err

    def test_infer_trailing_bytes_exit_2(self, gt_path, tmp_path, capsys):
        ckpt = str(tmp_path / "m.hsrw")
        save_checkpoint(init_weights(ModelConfig(bands=4, scale=2)), ckpt)
        with open(ckpt, "ab") as fh:
            fh.write(b"\0")
        assert run("infer", "--in", gt_path, "--ckpt", ckpt,
                   "--out", str(tmp_path / "x.hsc")) == 2
        assert "trailing bytes" in capsys.readouterr().err

    def test_infer_unsupported_version_exit_2(self, gt_path, tmp_path, capsys):
        ckpt = tmp_path / "m.hsrw"
        cfg = ModelConfig(bands=4, scale=2, hidden=8, levels=1)
        save_checkpoint(init_weights(cfg), str(ckpt))
        blob = bytearray(ckpt.read_bytes())
        struct.pack_into("<I", blob, 4, 2)
        ckpt.write_bytes(bytes(blob))
        out = tmp_path / "x.hsc"
        assert run("infer", "--in", gt_path, "--ckpt", str(ckpt),
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: unsupported checkpoint version 2\n"
        assert not out.exists()

    # each value makes numpy refuse the array's shape before it allocates
    @pytest.mark.parametrize("argv", [
        ["synth", "--bands", str(2**64)],
        ["synth", "--size", str(2**64)],
        ["synth", "--bands", str(2**63 - 1)],
        ["train", "--hidden", str(2**64)],
        ["train", "--state", str(2**64)],
        ["scan-viz", "--height", str(2**70), "--width", "1"],
    ], ids=["synth-bands-2^64", "synth-size-2^64", "synth-bands-2^63-1",
            "train-hidden-2^64", "train-state-2^64", "scan-viz-height-2^70"])
    def test_shape_past_the_address_space_exit_2(self, gt_path, tmp_path,
                                                 capsys, argv):
        cmd, *flags = argv
        out = str(tmp_path / "out")
        if cmd == "train":
            flags += ["--gt", gt_path, "--scale", "2", "--steps", "1",
                      "--patch", "16", "--ckpt", out]
        else:
            flags += ["--out", out]
        assert run(cmd, *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cmd}: not enough memory: an array of shape")
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["gt.hsc"]

    @pytest.mark.parametrize("shape", ABSURD_SHAPES, ids=["2d", "3d"])
    def test_infer_absurd_shape_exit_2(self, gt_path, tmp_path, capsys, shape):
        bad = str(tmp_path / "bad.hsrw")
        with open(bad, "wb") as fh:
            fh.write(absurd_shape_checkpoint(shape))
        assert run("infer", "--in", gt_path, "--ckpt", bad,
                   "--out", str(tmp_path / "x.hsc")) == 2
        assert capsys.readouterr().err.startswith("error:")


def write_with_nan(src, dst):
    cube = read_hsc(src)
    cube.data[0, 1, 1] = np.nan  # HsiCube does not check values
    write_hsc(cube, dst)


class TestMissingOutputDirectory:
    # a write into a missing directory exits 2 and names the path given,
    # not the temporary file beside it

    @pytest.mark.parametrize("argv", [
        ["synth", "--bands", "2", "--size", "8", "--out"],
        ["eval", "--pred", "GT", "--gt", "GT", "--scale", "2", "--csv"],
        ["eval", "--pred", "GT", "--gt", "GT", "--scale", "2",
         "--csv", "c.csv", "--sam-map"],
        ["scan-viz", "--height", "2", "--width", "2", "--out"],
    ])
    def test_writer_names_the_given_path(self, gt_path, tmp_path, capsys,
                                         monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        argv = [gt_path if arg == "GT" else arg for arg in argv]
        assert run(*argv, "nodir/out") == 2
        err = capsys.readouterr().err
        assert "'nodir/out" in err and ".tmp" not in err

    @pytest.mark.parametrize("flag", ["--ckpt", "--loss-csv"])
    def test_train_checks_before_training(self, gt_path, tmp_path, capsys,
                                          monkeypatch, flag):
        def no_training(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(cli, "run_train", no_training)
        outs = {"--ckpt": str(tmp_path / "m.hsrw"),
                "--loss-csv": str(tmp_path / "loss.csv")}
        outs[flag] = given = str(tmp_path / "nodir" / "out")
        assert run("train", "--gt", gt_path, "--scale", "2", "--steps", "20",
                   *(arg for item in outs.items() for arg in item)) == 2
        err = capsys.readouterr().err
        assert given in err and ".tmp" not in err


class TestNonFiniteInput:
    def test_eval_nan_pred_exit_2(self, gt_path, tmp_path, capsys):
        pred = str(tmp_path / "pred.hsc")
        csv = tmp_path / "m.csv"
        write_with_nan(gt_path, pred)
        assert run("eval", "--pred", pred, "--gt", gt_path, "--scale", "2",
                   "--csv", str(csv)) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not csv.exists()

    def test_infer_nan_lr_exit_2(self, gt_path, tmp_path, capsys):
        lr = str(tmp_path / "lr.hsc")
        ckpt = str(tmp_path / "m.hsrw")
        write_with_nan(gt_path, lr)
        save_checkpoint(init_weights(ModelConfig(bands=4, scale=2)), ckpt)
        assert run("infer", "--in", lr, "--ckpt", ckpt,
                   "--out", str(tmp_path / "x.hsc")) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_infer_nan_weight_exit_1_names_block(self, gt_path, tmp_path,
                                                 capsys):
        # a numeric failure inside the model exits 1 and names the block
        ckpt = str(tmp_path / "m.hsrw")
        out = tmp_path / "x.hsc"
        weights = init_weights(ModelConfig(bands=4, scale=2, hidden=8,
                                           levels=1, state=4))
        weights.params["enc.1.hfse.0.head.w"][:] = np.nan
        save_checkpoint(weights, ckpt)
        assert run("infer", "--in", gt_path, "--ckpt", ckpt,
                   "--out", str(out)) == 1
        assert "error: enc.1.hfse.0: head conv" in capsys.readouterr().err
        assert not out.exists()

    def test_infer_overflowing_a_log_exit_0(self, gt_path, tmp_path):
        # exp(1e30) overflows to A = -inf, the exact limit: a decay of 0,
        # with no numpy overflow warning (an error under this suite)
        ckpt = str(tmp_path / "m.hsrw")
        out = str(tmp_path / "x.hsc")
        weights = init_weights(ModelConfig(bands=4, scale=2, hidden=8,
                                           levels=1, state=4))
        weights.params["enc.0.lfse.0.vssm.s6.0.a_log"][:] = 1e30
        save_checkpoint(weights, ckpt)
        assert run("infer", "--in", gt_path, "--ckpt", ckpt,
                   "--out", out) == 0
        assert np.isfinite(read_hsc(out).data).all()

    def test_infer_with_overflowing_weights_exit_1(self, tmp_path, capsys):
        # `train --lr 1e30` writes weights near 1e30; their forward
        # overflows, which exits 1 naming a block, with no numpy warning
        # (an error under this suite) escaping main
        gt, lr = str(tmp_path / "gt.hsc"), str(tmp_path / "lr.hsc")
        ckpt, out = str(tmp_path / "m.hsrw"), tmp_path / "x.hsc"
        assert run("synth", "--seed", "0", "--bands", "8", "--size", "16",
                   "--out", gt) == 0
        assert run("degrade", "--in", gt, "--scale", "2", "--out", lr) == 0
        assert run("train", "--gt", gt, "--scale", "2", "--steps", "1",
                   "--hidden", "16", "--levels", "1", "--patch", "16",
                   "--lr", "1e30", "--ckpt", ckpt) == 0
        capsys.readouterr()
        assert run("infer", "--in", lr, "--ckpt", ckpt, "--out", str(out)) == 1
        assert "error: enc.0.lfse.0: " in capsys.readouterr().err
        assert not out.exists()

    def test_eval_hsc_one_byte_long_exit_2(self, gt_path, tmp_path, capsys):
        size = os.path.getsize(gt_path)
        with open(gt_path, "ab") as fh:
            fh.write(b"\0")
        csv = tmp_path / "m.csv"
        assert run("eval", "--pred", gt_path, "--gt", gt_path, "--scale", "2",
                   "--csv", str(csv)) == 2
        assert f"trailing bytes after the HSC payload at byte {size}" in \
            capsys.readouterr().err
        assert not csv.exists()

    @pytest.mark.parametrize("dims", [(0, 4, 4), (4, 0, 4)],
                             ids=["zero-bands", "zero-height"])
    def test_eval_zero_dim_hsc_exit_2(self, gt_path, tmp_path, capsys, dims):
        # an empty payload has no min or max, so the clamp count must not
        # read them; the cube check rejects the shape
        bad = str(tmp_path / "empty.hsc")
        with open(bad, "wb") as fh:
            fh.write(b"HSC1" + struct.pack("<IIIff", *dims, 0.0, 1.0))
        assert run("eval", "--pred", bad, "--gt", gt_path, "--scale", "2",
                   "--csv", str(tmp_path / "m.csv")) == 2
        assert f"cube must be (C,H,W), got {dims}" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["eval", "infer"])
    def test_infinite_value_range_exit_2(self, gt_path, tmp_path, capsys,
                                         cmd):
        bad = str(tmp_path / "bad.hsc")
        blob = bytearray(open(gt_path, "rb").read())
        struct.pack_into("<f", blob, 20, np.inf)  # hi of the value range
        with open(bad, "wb") as fh:
            fh.write(bytes(blob))
        out = str(tmp_path / "out")
        if cmd == "eval":
            argv = ["--pred", gt_path, "--gt", bad, "--scale", "2",
                    "--csv", out]
        else:
            ckpt = str(tmp_path / "m.hsrw")
            save_checkpoint(init_weights(ModelConfig(bands=4, scale=2)), ckpt)
            argv = ["--in", bad, "--ckpt", ckpt, "--out", out]
        assert run(cmd, *argv) == 2
        assert "byte 16" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestScanViz:
    def test_text_grid_matches_hand_enumeration(self, tmp_path):
        out = str(tmp_path / "viz")
        assert run("scan-viz", "--height", "2", "--width", "4",
                   "--stripe", "2", "--out", out) == 0
        rows = [line.split() for line in open(out + ".txt")]
        assert rows == [["0", "1", "4", "5"], ["2", "3", "6", "7"]]

    def test_ppm_written(self, tmp_path):
        out = str(tmp_path / "viz")
        run("scan-viz", "--height", "4", "--width", "4", "--stripe", "2",
            "--kind", "window", "--direction", "1", "--out", out)
        blob = open(out + ".ppm", "rb").read()
        assert blob.startswith(b"P6\n4 4\n255\n")

    def test_too_large_for_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        # the order's first allocation fails, before anything is written
        def no_memory(*_):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(scan_module, "_tile_base", no_memory)
        out = tmp_path / "viz"
        assert run("scan-viz", "--height", "4", "--width", "4",
                   "--out", str(out)) == 2
        assert "error: scan-viz: not enough memory" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["stripe", "window"])
    def test_stripe_past_int64_same_as_grid_size(self, tmp_path, kind):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out, stripe in ((a, 2**63), (b, 4 * 5)):
            assert run("scan-viz", "--height", "4", "--width", "5",
                       "--stripe", str(stripe), "--kind", kind,
                       "--out", out) == 0
        assert open(a + ".txt").read() == open(b + ".txt").read()

    def test_idempotent_outputs(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            run("scan-viz", "--height", "3", "--width", "5", "--stripe", "2",
                "--out", out)
        assert open(a + ".txt").read() == open(b + ".txt").read()
        assert open(a + ".ppm", "rb").read() == open(b + ".ppm", "rb").read()

