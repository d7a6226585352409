"""End-to-end acceptance gates.

Each test covers one release criterion and prints a single PASS/FAIL line
(with wall time) straight to the terminal, bypassing pytest capture. The
expensive overfit run is executed once and shared by the criteria that
need it (trainability, ablation, determinism).
"""

import contextlib
import math
import time

import numpy as np
import pytest

from conftest import (init_param_dict, reduce_mean, rel_err, rng, s6_oracle,
                      whole_block)
from stripesr import cli
from stripesr import tensor as T
from stripesr.blocks import (
    ParamView,
    four_orders,
    gate_weights,
    hfse_forward,
    hfse_specs,
    hlfd_forward,
    hlfd_specs,
    lfse_forward,
    lfse_specs,
    soft_gate,
    vssm_forward,
    vssm_specs,
)
from stripesr.data import (
    HsiCube,
    degrade,
    gaussian3_kernel,
    gray_to_p6,
    read_hsc,
    synth_cube,
    write_hsc,
)
from stripesr.metrics import PSNR_CAP_DB, ergas, psnr, sam, ssim
from stripesr.model import (
    ModelConfig,
    count_params,
    forward,
    infer,
    init_weights,
    load_checkpoint,
    save_checkpoint,
)
from stripesr.ops import (
    bicubic_resize,
    channel_attention,
    conv2d,
    l1_loss,
    layernorm,
)
from stripesr.s6 import CHUNK, S6Params, _s6_core, delta_rank, ss2d
from stripesr.scan import (
    count_vertical_transitions,
    gather_tokens,
    make_order,
    scatter_tokens,
)
from stripesr.tensor import Tensor
from stripesr.train import TrainConfig, train, write_loss_csv
from stripesr.wavelet import WaveletPair, dwt_haar, iwt_haar

# each block on its full-width input, as a model stage runs it
lfse, hfse, hlfd = map(whole_block, (lfse_forward, hfse_forward, hlfd_forward))


@contextlib.contextmanager
def criterion(capsys, num, title):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d} ({title}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {num:2d} ({title}): PASS "
              f"[{time.perf_counter() - t0:.1f}s]")


def _t64(a):
    return Tensor(np.asarray(a, dtype=np.float64), dtype=np.float64)


# ------------------------------------------------------ shared overfit run

OVERFIT_STEPS = 500
_overfit_cache: dict = {}


def overfit_dataset():
    gt = synth_cube(0, 8, 32, 32)
    lr = degrade(gt, 2)
    return [(lr.data, gt.data)], gt, lr


def overfit_run(scan_kind: str):
    """One-patch overfit: lr=1e-4, <=500 AdamW steps, early stop at 10%.
    Cached per kind, with a `run` that repeats the same training."""
    if scan_kind in _overfit_cache:
        return _overfit_cache[scan_kind]
    ds, gt, lr = overfit_dataset()
    mcfg = ModelConfig(bands=8, scale=2, hidden=16, levels=1, stripe=4,
                       state=16, scan_kind=scan_kind, seed=2)
    base = dict(lr=1e-4, batch=1, gt_patch=32, seed=2)
    _, probe = train(ds, TrainConfig(epochs=1, max_steps=1, **base), mcfg)
    initial = probe[0]
    cfg = TrainConfig(epochs=OVERFIT_STEPS, max_steps=OVERFIT_STEPS, **base)

    def run():
        return train(ds, cfg, mcfg, on_step=lambda step, loss, w: loss <= 0.1 * initial)

    weights, curve = run()
    assert curve[0] == initial  # deterministic restart
    _overfit_cache[scan_kind] = (mcfg, run, weights, curve, gt, lr)
    return _overfit_cache[scan_kind]


# -------------------------------------------------------------- criteria


def test_criterion_01_wavelet_perfect_reconstruction(capsys):
    with criterion(capsys, 1, "wavelet perfect reconstruction"):
        t0 = time.perf_counter()
        for i in range(100):
            x = rng(i).random((8, 32, 32)).astype(np.float32)
            pair = dwt_haar(Tensor(x))
            back = iwt_haar(pair).data
            assert np.abs(back - x).max() < 1e-6
            e_in = float((x.astype(np.float64) ** 2).sum())
            e_out = float((pair.low.data.astype(np.float64) ** 2).sum()
                          + (pair.high.data.astype(np.float64) ** 2).sum())
            assert abs(e_in - e_out) / e_in < 1e-4
        assert time.perf_counter() - t0 < 5.0


def test_criterion_02_scan_order_bijection(capsys):
    with criterion(capsys, 2, "scan-order bijection"):
        t0 = time.perf_counter()
        for h in range(1, 9):
            for w in range(1, 9):
                ident = np.arange(h * w)
                for direction in range(4):
                    for kind in ("raster", "stripe", "window"):
                        for p in range(1, 9):
                            o = make_order(kind, h, w, p, direction)
                            assert np.array_equal(np.sort(o.perm), ident)
                            assert np.array_equal(o.perm[o.inv], ident)
                # full-width stripes degenerate to the raster order (the
                # transposed directions see a grid of width h, hence L=h)
                for direction in range(4):
                    full = w if direction in (0, 1) else h
                    assert np.array_equal(
                        make_order("stripe", h, w, full, direction).perm,
                        make_order("raster", h, w, 1, direction).perm)
        # narrow stripes revisit rows: the 4-direction family always
        # contains a vertical-neighbor transition
        for h in range(2, 9):
            for w in range(2, 9):
                for length in range(1, w):
                    total = sum(
                        count_vertical_transitions(
                            make_order("stripe", h, w, length, d))
                        for d in range(4))
                    assert total >= 1
        assert time.perf_counter() - t0 < 10.0


def _random_s6_params(seed, d, n, dtype=np.float64):
    g = np.random.default_rng(seed)
    r = delta_rank(d)
    raw = dict(
        a_log=g.normal(0, 0.5, (d, n)),
        d_skip=g.normal(0, 1, d),
        w_b=g.normal(0, 0.5, (d, n)),
        w_c=g.normal(0, 0.5, (d, n)),
        w_dt_down=g.normal(0, 0.5, (r, d)),
        w_dt_up=g.normal(0, 0.5, (d, r)),
        b_dt=g.normal(0, 0.5, d),
    )
    return (S6Params(**{k: Tensor(v, dtype=dtype) for k, v in raw.items()}),
            raw)


def test_criterion_03_selective_scan_oracle_equivalence(capsys):
    with criterion(capsys, 3, "selective-scan == loop oracle"):
        d, n, t = 4, 8, 64
        for inst in range(50):
            p, raw = _random_s6_params(1000 + inst, d, n)
            x = np.random.default_rng(inst).normal(size=(d, t))
            got = _s6_core(_t64(x[None].copy()), [p]).data[0]
            assert rel_err(got, s6_oracle(x, **raw)) < 1e-5
        # one batched call with a distinct parameter set per entry, and
        # sequences that end inside and at the end of a later chunk
        for t_long in (t, CHUNK + 5, 2 * CHUNK):
            sets = [_random_s6_params(2000 + k, d, n) for k in range(4)]
            xb = np.random.default_rng(50).normal(size=(4, d, t_long))
            got = _s6_core(_t64(xb.copy()), [p for p, _ in sets]).data
            for k, (_, raw) in enumerate(sets):
                assert rel_err(got[k], s6_oracle(xb[k], **raw)) < 1e-5
                got_k = _s6_core(_t64(xb[k : k + 1].copy()), [sets[k][0]]).data[0]
                assert rel_err(got_k, s6_oracle(xb[k], **raw)) < 1e-5
        # hand-unrolled scalar recurrence, d=1 N=1 T=3
        p, raw = _random_s6_params(7, 1, 1)
        xs = [0.4, -0.7, 1.1]
        a = -math.exp(raw["a_log"][0, 0])
        h, want = 0.0, []
        for xv in xs:
            dt = math.log1p(math.exp(
                raw["w_dt_up"][0, 0] * raw["w_dt_down"][0, 0] * xv
                + raw["b_dt"][0]))
            h = math.exp(dt * a) * h + dt * xv * (raw["w_b"][0, 0] * xv)
            want.append(h * (raw["w_c"][0, 0] * xv) + raw["d_skip"][0] * xv)
        got = _s6_core(_t64(np.array(xs)[None, None, :]), [p]).data[0, 0]
        assert np.abs(got - np.array(want)).max() < 1e-6


def test_criterion_04_gradient_checks(capsys):
    with criterion(capsys, 4, "gradient checks (ops, blocks, micro model)"):
        t0 = time.perf_counter()
        g = rng(0)
        tol = 2e-3
        orders4 = four_orders("stripe", 2, 4, 4)  # the blocks' 4x4 inputs

        def chk(f, x, eps=1e-6):
            assert T.grad_check(f, np.asarray(x, dtype=np.float64),
                                eps=eps) < tol

        # elementwise / shape / reduction ops
        x = g.normal(size=(2, 5))
        for op in (T.sigmoid, T.silu):
            chk(lambda t, op=op: reduce_mean(op(t)), x)
        other = _t64(g.normal(size=(2, 5)) + 2.0)
        for op in (T.add, T.mul):
            chk(lambda t, op=op: reduce_mean(T.sigmoid(op(t, other))), x)
        row = _t64(g.normal(size=(1, 5)))
        chk(lambda t: reduce_mean(T.sigmoid(
            T.concat([t, row], axis=0))), x)
        chk(lambda t: reduce_mean(T.sigmoid(T.narrow(t, 1, 1, 3))), x)

        # structured ops
        img = g.normal(size=(4, 5, 5)) * 0.5
        w4 = _t64(g.normal(size=(4, 2, 3, 3)) * 0.3)
        b4 = _t64(g.normal(size=4))
        chk(lambda t: reduce_mean(T.sigmoid(conv2d(t, w4, b4))), img)
        chk(lambda t: reduce_mean(T.sigmoid(
            conv2d(_t64(img), t, b4))), w4.data)
        gam, bet = _t64(g.normal(size=4) + 1.0), _t64(g.normal(size=4))
        chk(lambda t: reduce_mean(T.sigmoid(layernorm(t, gam, bet))), img,
            eps=1e-4)
        wc1 = _t64(g.normal(size=(2, 4)))
        bc1 = _t64(g.normal(size=2))
        wc2 = _t64(g.normal(size=(4, 2)))
        bc2 = _t64(g.normal(size=4))
        chk(lambda t: reduce_mean(T.sigmoid(
            channel_attention(t, wc1, wc2, bc1, bc2))), img)
        tgt = _t64(g.normal(size=(4, 5, 5)))
        chk(lambda t: l1_loss(t, tgt), img + 5.0)  # stay off |.| kinks

        # wavelet, both directions
        even = g.normal(size=(3, 4, 4))
        chk(lambda t: reduce_mean(T.sigmoid(dwt_haar(t).low)), even)
        chk(lambda t: reduce_mean(T.sigmoid(dwt_haar(t).high)), even)
        hi = _t64(g.normal(size=(9, 2, 2)))
        chk(lambda t: reduce_mean(T.sigmoid(iwt_haar(
            WaveletPair(low=t, high=hi)))), g.normal(size=(3, 2, 2)))

        # scan plumbing and selective scan
        order = make_order("stripe", 3, 4, 2)
        chk(lambda t: reduce_mean(T.sigmoid(gather_tokens(t, [order]))),
            g.normal(size=(2, 3, 4)))
        chk(lambda t: reduce_mean(T.sigmoid(scatter_tokens(t, [order]))),
            g.normal(size=(1, 2, 12)))
        p6, raw6 = _random_s6_params(11, 2, 2)
        seq = g.normal(size=(1, 2, 6)) * 0.5
        chk(lambda t: reduce_mean(T.sigmoid(_s6_core(t, [p6]))), seq,
            eps=1e-4)
        for name in raw6:
            def f(t, name=name):
                kw = {k: (t if k == name else _t64(v))
                      for k, v in raw6.items()}
                return reduce_mean(T.sigmoid(
                    _s6_core(_t64(seq.copy()), [S6Params(**kw)])))
            chk(f, raw6[name], eps=1e-4)
        quad = [ _random_s6_params(20 + i, 2, 2)[0] for i in range(4)]
        orders = [make_order("stripe", 3, 4, 2, d) for d in range(4)]
        chk(lambda t: reduce_mean(T.sigmoid(ss2d(t, quad, orders))),
            g.normal(size=(2, 3, 4)) * 0.5, eps=1e-4)

        # gate incl. d/d(alpha)
        g1, g2, g3 = (g.normal(size=(2, 3, 3)) for _ in range(3))
        chk(lambda t: reduce_mean(T.sigmoid(
            soft_gate(t, _t64(g2), _t64(g3), _t64([0.3])))), g1)
        chk(lambda t: reduce_mean(T.sigmoid(
            soft_gate(_t64(g1), _t64(g2), _t64(g3), t))), np.array([0.3]))

        # composite blocks, input gradients
        for fwd, specs in ((vssm_forward, vssm_specs(4, 2)),
                           (lfse, lfse_specs(8, 2)),
                           (hfse, hfse_specs(8, 2)),
                           (hlfd, hlfd_specs(8, 2))):
            raw = init_param_dict(specs, seed=3)
            c = raw["head.w"].shape[1] if "head.w" in raw else 4
            xin = g.normal(size=(c, 4, 4)) * 0.5

            def f(t, raw=raw, fwd=fwd):
                params = {k: _t64(v) for k, v in raw.items()}
                return reduce_mean(T.sigmoid(
                    fwd(t, ParamView(params), orders4)))
            chk(f, xin, eps=1e-4)
        # HFSE learned gate scalar
        raw_h = init_param_dict(hfse_specs(8, 2), seed=4)
        xh = g.normal(size=(8, 4, 4)) * 0.5

        def fh(t):
            params = {k: (t if k == "alpha" else _t64(v))
                      for k, v in raw_h.items()}
            return reduce_mean(T.sigmoid(
                hfse(_t64(xh), ParamView(params), orders4)))
        chk(fh, raw_h["alpha"].copy(), eps=1e-4)

        # full micro model, gradients w.r.t. weights
        cfg = ModelConfig(bands=4, scale=2, hidden=8, levels=1, stripe=4,
                          state=2, seed=0)
        raw_m = {k: v.astype(np.float64)
                 for k, v in init_weights(cfg).params.items()}
        xm = _t64(rng(4).random((4, 8, 8)))
        for key in ("global.head.b", "global.tail.b",
                    "enc.0.lfse.0.vssm.s6.0.a_log",
                    "dec.1.hlfd.0.fuse.b"):
            def fm(t, key=key):
                params = {k: (t if k == key else Tensor(v, dtype=np.float64))
                          for k, v in raw_m.items()}
                return reduce_mean(T.sigmoid(forward(xm, params, cfg)))
            chk(fm, raw_m[key].copy(), eps=1e-4)
        assert time.perf_counter() - t0 < 120.0


def test_criterion_05_gate_algebra(capsys):
    with criterion(capsys, 5, "gate algebra"):
        weights = [gate_weights(float(a)) for a in np.linspace(-5.0, 5.0, 201)]
        for w1, w2 in weights:
            assert abs(w1 + w2 - 1.0) < 1e-15
        assert gate_weights(0.5) == (0.5, 0.5)
        firsts = [w1 for w1, _ in weights]
        assert all(b > a for a, b in zip(firsts, firsts[1:]))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_06_residual_null_case(capsys, tmp_path):
    with criterion(capsys, 6, "zero-tail output == bicubic via CLI"):
        gt_path = str(tmp_path / "gt.hsc")
        assert cli.main(["synth", "--seed", "0", "--bands", "3", "--size",
                         "32", "--out", gt_path]) == 0
        for s in (2, 4, 8):
            lr_path = str(tmp_path / f"lr{s}.hsc")
            sr_path = str(tmp_path / f"sr{s}.hsc")
            ckpt = str(tmp_path / f"null{s}.hsrw")
            csv = str(tmp_path / f"m{s}.csv")
            assert cli.main(["degrade", "--in", gt_path, "--scale", str(s),
                             "--out", lr_path]) == 0
            mcfg = ModelConfig(bands=3, scale=s, hidden=16, levels=1,
                               stripe=4, state=4, seed=0)
            weights = init_weights(mcfg)
            weights.params["global.tail.w"][:] = 0.0
            weights.params["global.tail.b"][:] = 0.0
            save_checkpoint(weights, ckpt)
            assert cli.main(["infer", "--in", lr_path, "--ckpt", ckpt,
                             "--out", sr_path]) == 0
            assert cli.main(["eval", "--pred", sr_path, "--gt", gt_path,
                             "--scale", str(s), "--csv", csv]) == 0
            lr_cube = read_hsc(lr_path)
            up = bicubic_resize(Tensor(lr_cube.data), s).data
            lo, hi = lr_cube.value_range
            want = np.clip(up, lo, hi)
            got = read_hsc(sr_path).data
            assert np.array_equal(got, want)  # bit-exact
            row = open(csv).read().strip().split(",")
            assert all(np.isfinite(float(v)) for v in row)


def test_criterion_07_metrics_best_value_row(capsys):
    with criterion(capsys, 7, "metrics best-value row"):
        g = rng(42)
        x = g.random((4, 12, 12)) + 0.05
        assert psnr(x, x.copy()) == PSNR_CAP_DB
        assert ssim(x, x.copy()) == pytest.approx(1.0, abs=1e-6)
        assert sam(x, x.copy()) == pytest.approx(0.0, abs=1e-6)
        assert ergas(x, x.copy(), 4) == pytest.approx(0.0, abs=1e-6)
        half = g.random((4, 12, 12)) * 0.5
        assert psnr(half, half + 0.1) == pytest.approx(20.0, abs=1e-4)

        a = g.random((3, 9, 9))
        b = g.random((3, 9, 9))
        # PSNR: per-band log-MSE mean
        want_psnr = np.mean([10 * np.log10(1.0 / ((a[c] - b[c]) ** 2).mean())
                             for c in range(3)])
        assert rel_err(psnr(a, b), want_psnr) < 1e-6
        # SSIM: uniform 8x8 sliding window
        c1, c2 = 0.01**2, 0.03**2
        vals = []
        for c in range(3):
            for i in range(2):
                for j in range(2):
                    wa = a[c, i:i + 8, j:j + 8]
                    wb = b[c, i:i + 8, j:j + 8]
                    ma, mb = wa.mean(), wb.mean()
                    cov = ((wa - ma) * (wb - mb)).mean()
                    vals.append((2 * ma * mb + c1) * (2 * cov + c2)
                                / ((ma**2 + mb**2 + c1)
                                   * (wa.var() + wb.var() + c2)))
        assert rel_err(ssim(a, b), np.mean(vals)) < 1e-6
        # SAM: per-pixel spectral angle mean (degrees)
        angles = []
        for i in range(9):
            for j in range(9):
                u, v = a[:, i, j], b[:, i, j]
                cosang = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
                angles.append(math.degrees(math.acos(min(1.0, cosang))))
        assert rel_err(sam(a, b), np.mean(angles)) < 1e-6
        # ERGAS: band-relative RMS, scale-normalized
        acc = [((a[c] - b[c]) ** 2).mean() / a[c].mean() ** 2
               for c in range(3)]
        want_ergas = 100.0 / 4 * math.sqrt(np.mean(acc))
        assert rel_err(ergas(a, b, 4), want_ergas) < 1e-6


def test_criterion_08_degradation_protocol(capsys):
    with criterion(capsys, 8, "degradation protocol"):
        k = gaussian3_kernel()
        assert k.shape == (3, 3)
        assert abs(k.sum() - 1.0) < 1e-7
        const = HsiCube(np.full((5, 16, 16), 0.375, dtype=np.float32),
                        value_range=(0.0, 1.0))
        for s in (2, 4, 8):
            big = HsiCube(rng(s).random((5, 2 * s * 3, 2 * s * 5))
                          .astype(np.float32), value_range=(0.0, 1.0))
            out = degrade(big, s)
            assert out.data.shape == (5, big.data.shape[1] // s,
                                      big.data.shape[2] // s)
            np.testing.assert_allclose(degrade(const, s).data, 0.375,
                                       atol=1e-6)


@pytest.mark.slow
def test_criterion_09_trainability(capsys):
    with criterion(capsys, 9, "one-patch overfit trainability"):
        t0 = time.perf_counter()
        mcfg, _, weights, curve, gt, lr = overfit_run("stripe")
        assert len(curve) <= 500
        assert curve[-1] <= 0.1 * curve[0]
        pred = infer(lr.data, weights).data
        base = bicubic_resize(Tensor(lr.data), 2).data
        model_db = psnr(gt.data, np.clip(pred, 0.0, 1.0))
        base_db = psnr(gt.data, np.clip(base, 0.0, 1.0))
        assert model_db >= base_db + 1.0
        assert time.perf_counter() - t0 < 600.0


@pytest.mark.slow
def test_criterion_10_ablation_harness(capsys, tmp_path):
    with criterion(capsys, 10, "scan-order ablation harness"):
        kinds = ("stripe", "raster", "window")
        counts, finals = {}, {}
        for kind in kinds:
            mcfg, _, _, curve, _, _ = overfit_run(kind)
            counts[kind] = count_params(init_weights(mcfg))
            finals[kind] = curve[-1]
        assert len(set(counts.values())) == 1  # scan choice is param-free
        csv_path = tmp_path / "ablation.csv"
        with open(csv_path, "w") as fh:
            fh.write("scan,final_loss\n")
            for kind in kinds:
                fh.write(f"{kind},{finals[kind]}\n")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "scan,final_loss" and len(lines) == 4


@pytest.mark.slow
def test_criterion_11_determinism(capsys, tmp_path):
    with criterion(capsys, 11, "determinism and byte-exact formats"):
        mcfg, run, weights, curve, gt, lr = overfit_run("stripe")
        _, rerun = run()
        assert rerun == curve  # bit-identical floats

        # HSC container
        a, b = str(tmp_path / "a.hsc"), str(tmp_path / "b.hsc")
        write_hsc(gt, a)
        write_hsc(gt, b)
        assert open(a, "rb").read() == open(b, "rb").read()
        assert np.array_equal(read_hsc(a).data, gt.data)

        # checkpoint container
        ca, cb = str(tmp_path / "a.hsrw"), str(tmp_path / "b.hsrw")
        save_checkpoint(weights, ca)
        save_checkpoint(weights, cb)
        assert open(ca, "rb").read() == open(cb, "rb").read()
        loaded = load_checkpoint(ca)
        assert loaded.config == mcfg
        assert all(np.array_equal(loaded.params[k], weights.params[k])
                   for k in weights.params)

        # P6 preview and loss CSV
        assert gray_to_p6(gt.data[3]) == gray_to_p6(gt.data[3])
        la, lb = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_loss_csv(curve, la)
        write_loss_csv(curve, lb)
        assert open(la).read() == open(lb).read()


@pytest.mark.slow
def test_float32_infer_within_1e6_of_float64_forward():
    # the whole model's float32 error, which no per-op tolerance bounds,
    # at odd LR 17x19: on criterion 9's trained weights (one level, whose
    # 34x38 grid is even at every supported scale) and on a two-level
    # model's init weights, whose 17x19 level-2 grid pads
    trained = overfit_run("stripe")[2]
    two_level = init_weights(ModelConfig(bands=8, scale=2, hidden=16, levels=2,
                                         stripe=4, state=16, seed=2))
    x = degrade(synth_cube(1, 8, 34, 38), 2).data
    for weights in (trained, two_level):
        got = infer(x, weights).data
        want = forward(_t64(x), {k: _t64(v) for k, v in weights.params.items()},
                       weights.config).data
        assert got.dtype == np.float32 and want.dtype == np.float64
        assert np.abs(got - want).max() < 1e-6
