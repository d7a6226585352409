"""Command-line surface.

Subcommands: synth, degrade, train, infer, eval, scan-viz.
Exit codes: 0 success, 1 numeric failure, 2 usage or format failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import ContractViolation, FormatError, NumericError
from . import data as hsd
from . import metrics as qi
from . import model as mdl
from .train import TrainConfig, sample_patches, train as run_train, write_loss_csv
from .scan import KINDS, make_order


def _positive_int(value):
    iv = int(value)
    if iv < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return iv


def _non_negative_int(value):
    iv = int(value)
    if iv < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return iv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stripesr",
        description="Stripe-scan state-space super-resolution toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic hyperspectral cube")
    p.add_argument("--seed", type=_non_negative_int, default=0,
                   help="RNG seed (default: 0)")
    p.add_argument("--bands", type=_positive_int, default=8,
                   help="spectral bands (default: 8)")
    p.add_argument("--size", type=_positive_int, default=64,
                   help="square spatial size (default: 64)")
    p.add_argument("--smoothness", type=float, default=1.0,
                   help="spatial blob scale factor (default: 1.0)")
    p.add_argument("--out", required=True, help="output HSC path")

    p = sub.add_parser("degrade", help="blur + downsample a cube")
    p.add_argument("--in", dest="inp", required=True, help="input HSC path")
    p.add_argument("--scale", type=int, choices=hsd.SCALES, required=True,
                   help="downsampling factor")
    p.add_argument("--out", required=True, help="output HSC path")

    p = sub.add_parser("train", help="train on patches cut from a GT cube")
    p.add_argument("--gt", required=True, help="ground-truth HSC path")
    p.add_argument("--scale", type=int, choices=hsd.SCALES, required=True)
    p.add_argument("--steps", type=_positive_int, default=200,
                   help="optimizer steps (default: 200)")
    p.add_argument("--ckpt", required=True, help="output checkpoint (HSRW)")
    p.add_argument("--hidden", type=_positive_int, default=64,
                   help="hidden channels D (default: 64)")
    p.add_argument("--levels", type=_positive_int, default=2,
                   help="wavelet U-Net depth K (default: 2)")
    p.add_argument("--stripe", type=_positive_int, default=4,
                   help="stripe length / window size (default: 4)")
    p.add_argument("--state", type=_positive_int, default=16,
                   help="S6 state dim N (default: 16)")
    p.add_argument("--scan", choices=KINDS, default="stripe",
                   help="scan order kind (default: stripe)")
    p.add_argument("--seed", type=_non_negative_int, default=0,
                   help="RNG seed (default: 0)")
    p.add_argument("--lr", type=float, default=1e-4,
                   help="learning rate (default: 1e-4)")
    p.add_argument("--batch", type=_positive_int, default=8,
                   help="batch size (default: 8)")
    p.add_argument("--patch", type=_positive_int, default=None,
                   help="GT patch size (default: 64, or 128 at scale 8)")
    p.add_argument("--patches", type=_positive_int, default=32,
                   help="patches sampled for the epoch pool (default: 32)")
    p.add_argument("--ckpt-interval", type=_positive_int, default=None,
                   help="also checkpoint every N steps (default: off)")
    p.add_argument("--loss-csv", default=None,
                   help="write per-step loss curve CSV (default: off)")

    p = sub.add_parser("infer", help="super-resolve a cube with a checkpoint")
    p.add_argument("--in", dest="inp", required=True, help="input HSC path")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--out", required=True, help="output HSC path")

    p = sub.add_parser("eval", help="quality metrics between two cubes")
    p.add_argument("--pred", required=True, help="predicted HSC path")
    p.add_argument("--gt", required=True, help="reference HSC path")
    p.add_argument("--scale", type=int, choices=hsd.SCALES, default=4,
                   help="scale factor for ERGAS (default: 4)")
    p.add_argument("--csv", required=True, help="output CSV (one row)")
    p.add_argument("--sam-map", default=None,
                   help="optional P6 image of the SAM error map (default: off)")

    p = sub.add_parser("scan-viz", help="dump a scan order as text and image")
    p.add_argument("--height", type=_positive_int, required=True)
    p.add_argument("--width", type=_positive_int, required=True)
    p.add_argument("--stripe", type=_positive_int, default=4,
                   help="stripe length / window size (default: 4)")
    p.add_argument("--kind", choices=KINDS, default="stripe",
                   help="scan kind (default: stripe)")
    p.add_argument("--direction", type=int, choices=(0, 1, 2, 3), default=0,
                   help="directional variant (default: 0)")
    p.add_argument("--out", required=True,
                   help="output prefix; writes <out>.txt and <out>.ppm")

    return parser


def _cmd_synth(args) -> int:
    cube = hsd.synth_cube(args.seed, args.bands, args.size, args.size,
                          args.smoothness)
    hsd.write_hsc(cube, args.out)
    return 0


def _cmd_degrade(args) -> int:
    cube = hsd.read_hsc(args.inp)
    hsd.write_hsc(hsd.degrade(cube, args.scale), args.out)
    return 0


def _cmd_train(args) -> int:
    gt = hsd.read_hsc(args.gt)
    lr_cube = hsd.degrade(gt, args.scale)
    mcfg = mdl.ModelConfig(
        bands=gt.bands, scale=args.scale, hidden=args.hidden,
        levels=args.levels, stripe=args.stripe, state=args.state,
        scan_kind=args.scan, seed=args.seed,
    )
    tcfg = TrainConfig(
        lr=args.lr, batch=args.batch, epochs=10**9, gt_patch=args.patch,
        seed=args.seed, max_steps=args.steps,
    )
    rng = np.random.default_rng(args.seed)
    dataset = sample_patches(
        [(lr_cube.data, gt.data)], tcfg, mcfg, rng, args.patches
    )

    def on_step(step, loss, weights):
        if args.ckpt_interval and step % args.ckpt_interval == 0:
            mdl.save_checkpoint(weights, args.ckpt)

    weights, curve = run_train(dataset, tcfg, mcfg, on_step=on_step)
    mdl.save_checkpoint(weights, args.ckpt)
    if args.loss_csv:
        write_loss_csv(curve, args.loss_csv)
    print(f"trained {len(curve)} steps, final loss {curve[-1]:.6g}")
    return 0


def _cmd_infer(args) -> int:
    weights = mdl.load_checkpoint(args.ckpt)
    cube = hsd.read_hsc(args.inp)
    out = mdl.infer(cube.data, weights)
    hsd.write_hsc(hsd.HsiCube(out.data, value_range=cube.value_range), args.out)
    return 0


def _cmd_eval(args) -> int:
    pred = hsd.read_hsc(args.pred)
    gt = hsd.read_hsc(args.gt)
    a, b = qi.check_pair(pred, gt)  # the report and the SAM map share these
    report = qi.compute_report(a, b, scale=args.scale,
                               peak=gt.value_range[1] - gt.value_range[0])
    with hsd.atomic_open(args.csv, "w") as fh:
        fh.write(report.csv_row() + "\n")
    if args.sam_map:
        with hsd.atomic_open(args.sam_map) as fh:
            fh.write(hsd.gray_to_p6(qi.sam_error_map(a, b)))
    print(report.csv_row())
    return 0


def _cmd_scan_viz(args) -> int:
    order = make_order(args.kind, args.height, args.width, args.stripe,
                       args.direction)
    grid = order.inv.reshape(args.height, args.width)
    width = len(str(order.size - 1))
    with hsd.atomic_open(args.out + ".txt", "w") as fh:
        for row in grid:
            fh.write(" ".join(f"{v:>{width}}" for v in row) + "\n")
    with hsd.atomic_open(args.out + ".ppm") as fh:
        fh.write(hsd.gray_to_p6(grid.astype(np.float64)))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "degrade": _cmd_degrade,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "scan-viz": _cmd_scan_viz,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ContractViolation, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
