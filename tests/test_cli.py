"""CLI surface: commands run in-process through main(argv)."""

import struct

import numpy as np
import pytest

from conftest import ABSURD_SHAPES, absurd_shape_checkpoint
from stripesr import cli
from stripesr.data import read_hsc, synth_cube, write_hsc
from stripesr.model import ModelConfig, init_weights, save_checkpoint


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

    def test_eval_sam_map_is_p6(self, gt_path, tmp_path):
        out = str(tmp_path / "map.ppm")
        assert run("eval", "--pred", gt_path, "--gt", gt_path,
                   "--scale", "2", "--csv", str(tmp_path / "c.csv"),
                   "--sam-map", out) == 0
        assert open(out, "rb").read(2) == b"P6"

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

    def test_infer_trailing_bytes_exit_2(self, gt_path, tmp_path, capsys):
        ckpt = str(tmp_path / "m.hsrw")
        save_checkpoint(init_weights(ModelConfig(bands=4, scale=2)), ckpt)
        with open(ckpt, "ab") as fh:
            fh.write(b"\0")
        assert run("infer", "--in", gt_path, "--ckpt", ckpt,
                   "--out", str(tmp_path / "x.hsc")) == 2
        assert "trailing bytes" in capsys.readouterr().err

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

    def test_idempotent_outputs(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            run("scan-viz", "--height", "3", "--width", "5", "--stripe", "2",
                "--out", out)
        assert open(a + ".txt").read() == open(b + ".txt").read()
        assert open(a + ".ppm", "rb").read() == open(b + ".ppm", "rb").read()

