"""Training loop: sampling, determinism, early stop, loss bookkeeping."""

import gc
import weakref

import numpy as np
import pytest

from stripesr import ops
from stripesr.data import degrade, synth_cube
from stripesr.errors import ContractViolation, NumericError
from stripesr.model import ModelConfig, forward, init_weights
from stripesr.tensor import Tape, Tensor
from stripesr.train import (
    TrainConfig,
    default_gt_patch,
    sample_patches,
    train,
    write_loss_csv,
)

MICRO = ModelConfig(bands=4, scale=2, hidden=16, levels=1, stripe=4, state=4,
                    seed=0)


def micro_dataset(seed=0, size=16):
    gt = synth_cube(seed, 4, size, size)
    lr = degrade(gt, 2)
    return [(lr.data, gt.data)]


class TestConfig:
    def test_default_patch_by_scale(self):
        assert default_gt_patch(2) == 64
        assert default_gt_patch(4) == 64
        assert default_gt_patch(8) == 128

    def test_patch_divisibility_enforced(self):
        cfg = TrainConfig(gt_patch=30)
        with pytest.raises(ContractViolation):
            cfg.patch_for(ModelConfig(bands=4, scale=4))

    def test_patch_must_divide_wavelet_levels(self):
        cfg = TrainConfig(gt_patch=34)  # divisible by 2, not by 2^2
        with pytest.raises(ContractViolation):
            cfg.patch_for(ModelConfig(bands=4, scale=2, levels=2))


class TestSamplePatches:
    def test_exact_size_cube_gives_unique_crop(self):
        gt = synth_cube(0, 4, 16, 16)
        lr = degrade(gt, 2)
        cfg = TrainConfig(gt_patch=16)
        out = sample_patches([(lr.data, gt.data)], cfg, MICRO,
                             np.random.default_rng(0), 3)
        for lr_p, gt_p in out:
            np.testing.assert_array_equal(gt_p, gt.data)
            np.testing.assert_array_equal(lr_p, lr.data)

    def test_alignment_lr_is_gt_coordinates_over_s(self):
        gt = synth_cube(1, 2, 32, 32)
        lr = degrade(gt, 2)
        cfg = TrainConfig(gt_patch=16)
        rng = np.random.default_rng(5)
        for lr_p, gt_p in sample_patches([(lr.data, gt.data)], cfg, MICRO,
                                         rng, 20):
            assert gt_p.shape == (2, 16, 16)
            assert lr_p.shape == (2, 8, 8)
            # locate the GT crop and confirm the LR crop sits at origin/s
            for oy in range(0, 17, 2):
                for ox in range(0, 17, 2):
                    if np.array_equal(gt.data[:, oy:oy + 16, ox:ox + 16], gt_p):
                        np.testing.assert_array_equal(
                            lr.data[:, oy // 2:oy // 2 + 8,
                                    ox // 2:ox // 2 + 8],
                            lr_p)
                        break
                else:
                    continue
                break
            else:
                pytest.fail("GT crop not found at any aligned origin")

    def test_too_small_cube_rejected(self):
        cfg = TrainConfig(gt_patch=64)
        with pytest.raises(ContractViolation):
            sample_patches(micro_dataset(size=16), cfg, MICRO,
                           np.random.default_rng(0), 1)

    def test_origin_coverage_statistical(self):
        # every aligned origin of a 128^2 cube appears within 10^4 draws
        gt = np.zeros((1, 128, 128), dtype=np.float32)
        lr = np.zeros((1, 64, 64), dtype=np.float32)
        cfg = TrainConfig(gt_patch=64)
        mcfg = ModelConfig(bands=1, scale=2, hidden=16, levels=1)
        rng = np.random.default_rng(0)
        # re-run the documented draw procedure and record origins by
        # instrumenting via a marker cube
        marker = np.zeros((1, 128, 128), dtype=np.float32)
        marker[0] = np.arange(128 * 128, dtype=np.float32).reshape(128, 128)
        seen = set()
        for lr_p, gt_p in sample_patches([(lr, marker)], cfg, mcfg, rng,
                                         10_000):
            seen.add(int(gt_p[0, 0, 0]))
        valid = {r * 128 + c for r in range(0, 65, 2) for c in range(0, 65, 2)}
        assert seen == valid


class TestTrainLoop:
    def test_zero_epochs_returns_init_weights(self):
        cfg = TrainConfig(epochs=0)
        weights, curve = train(micro_dataset(), cfg, MICRO)
        ref = init_weights(MICRO)
        assert curve == []
        assert all(np.array_equal(weights.params[k], ref.params[k])
                   for k in ref.params)

    def test_curve_length_equals_steps(self):
        cfg = TrainConfig(batch=1, epochs=3, gt_patch=16)
        _, curve = train(micro_dataset(), cfg, MICRO)
        assert len(curve) == 3  # 1 patch / batch 1 -> 1 step per epoch

    def test_max_steps_stops_early(self):
        cfg = TrainConfig(batch=1, epochs=100, gt_patch=16, max_steps=4)
        _, curve = train(micro_dataset(), cfg, MICRO)
        assert len(curve) == 4

    def test_on_step_true_stops_early(self):
        # training stops after the first step whose on_step returns true
        cfg = TrainConfig(batch=1, epochs=100, gt_patch=16)
        calls = []
        _, curve = train(micro_dataset(), cfg, MICRO,
                         on_step=lambda step, loss, w: calls.append(step) or step == 3)
        assert len(curve) == 3 and calls == [1, 2, 3]

    def test_deterministic_loss_curves(self):
        cfg = TrainConfig(batch=1, epochs=5, gt_patch=16, seed=3)
        _, c1 = train(micro_dataset(), cfg, MICRO)
        _, c2 = train(micro_dataset(), cfg, MICRO)
        assert c1 == c2  # bit-identical floats

    def test_single_small_step_decreases_loss(self):
        cfg = TrainConfig(lr=1e-5, batch=1, epochs=2, gt_patch=16, seed=0)
        _, curve = train(micro_dataset(), cfg, MICRO)
        assert curve[1] < curve[0]

    @pytest.mark.parametrize("field, value", [
        ("lr", float("nan")), ("lr", float("inf")), ("lr", 0.0),
        ("lr", -1e-4), ("batch", 0), ("epochs", -1), ("seed", -1), ("max_steps", 0),
    ])
    def test_bad_setting_rejected_on_construction(self, field, value):
        with pytest.raises(ContractViolation, match=f"TrainConfig: {field} must"):
            TrainConfig(**{field: value})

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractViolation):
            train([], TrainConfig(), MICRO)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_diagnostic_names_step(self):
        weights = init_weights(MICRO)
        weights.params["global.head.w"][:] = np.nan
        cfg = TrainConfig(batch=1, epochs=1, gt_patch=16)
        with pytest.raises(NumericError) as err:
            train(micro_dataset(), cfg, MICRO, weights=weights)
        assert "step 0" in str(err.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_without_nan_weights_path(self):
        # huge lr drives weights to overflow within a few steps; the
        # diagnostic still names the failing step
        cfg = TrainConfig(batch=1, epochs=50, gt_patch=16, lr=1e18)
        with pytest.raises(NumericError) as err:
            train(micro_dataset(), cfg, MICRO)
        assert "step" in str(err.value)

    def test_on_step_callback_sees_every_step(self):
        calls = []
        cfg = TrainConfig(batch=1, epochs=2, gt_patch=16)
        train(micro_dataset(), cfg, MICRO,
              on_step=lambda step, loss, w: calls.append((step, loss)))
        assert [c[0] for c in calls] == [1, 2]


class TestLossCsv:
    def test_format(self, tmp_path):
        path = str(tmp_path / "loss.csv")
        write_loss_csv([0.5, 0.25], path)
        lines = open(path).read().splitlines()
        assert lines[0] == "step,loss"
        assert lines[1].startswith("0,0.5")
        assert lines[2].startswith("1,0.25")


class TestTapeLifetime:
    def test_finished_step_frees_its_tape_without_gc(self):
        # backward drops the closures that tie the tape to the forward's
        # tensors, so reference counting alone frees a finished step
        (lr, gt), = micro_dataset()
        weights = init_weights(MICRO)

        def step():
            tape = Tape()
            params = weights.as_tensors(tape)
            pred = forward(Tensor(lr), params, MICRO)
            tape.backward(ops.l1_loss(pred, Tensor(gt)))
            grads = {k: tape.grad(t) for k, t in params.items()}
            return weakref.ref(tape), grads

        gc.collect()
        gc.disable()
        try:
            tape_ref, grads = step()
            assert tape_ref() is None
        finally:
            gc.enable()
        assert any(np.abs(g).max() > 0 for g in grads.values())
