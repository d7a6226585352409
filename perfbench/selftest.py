"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Checks that
  - a traced op produces bytes identical to an untraced op, on every workload;
  - every metric named in BENCHMARK.json is emitted by a run, and no other;
  - the zeros predicted in layer_map.json hold (on eval-31b every s6.*,
    ops.conv2d.* and tensor.* metric among them), and the map covers every
    per-layer metric;
  - the traced numbers behave as predicted: on train-b4 the S6 scan takes
    the largest share of a step, infer-cli records no tape nodes, and SSIM
    dominates eval-31b.
Exits with 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from fnmatch import fnmatch
from pathlib import Path

from report import run_workload
from run import ROOT, WORK, WORKLOAD_NAMES, load_program

HERE = Path(__file__).resolve().parent
SECONDS = 1


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        sys.exit(1)


def traced_matches_untraced() -> None:
    from spans import Tracer
    from workloads import WORKLOADS, OpClock

    for name in WORKLOAD_NAMES:
        WORK.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=WORK))
        tracer = Tracer()
        try:
            wl = WORKLOADS[name](0, work)
            wl.setup()
            wl.warm_up()  # untraced: its output is the reference
            tracer.install()
            tracer.phase = "op"
            clock = OpClock(tracer, wl.op_span)
            wl.run_ops(clock, 0)
        finally:
            tracer.uninstall()
            shutil.rmtree(work, ignore_errors=True)
        check(clock.attempted >= 1 and clock.failed == 0,
              f"{name}: traced op output is identical to the untraced one")


def main() -> int:
    if load_program() is None:
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    check(sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOAD_NAMES)
          == sorted(layer_map["zero_on"]),
          "BENCHMARK.json, layer_map.json and run.py name the same workloads")
    patterns = [e["metrics"] for e in layer_map["moves"]] + layer_map["diagnostics"]
    uncovered = [m for m in per_layer if not any(fnmatch(m, p) for p in patterns)]
    check(not uncovered, f"layer_map.json covers every per-layer metric {uncovered}")

    traced_matches_untraced()

    layers = {}
    for name in WORKLOAD_NAMES:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            result, _ = run_workload(name, seed=0, seconds=SECONDS, trace=trace)
            metrics = result["metrics"]
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace {trace}: outputs correct")
            check(sorted(metrics) == sorted(expected),
                  f"{name} trace {trace}: emits exactly the BENCHMARK.json metrics")
            check(all(v["unit"] == units[k] for k, v in metrics.items()),
                  f"{name} trace {trace}: units match BENCHMARK.json")
            if trace == 0:
                check(all(v["value"] > 0 for v in metrics.values()),
                      f"{name}: every end-to-end metric is above 0")
        layers[name] = {k: v["value"] for k, v in metrics.items()}

    for name, zero_patterns in layer_map["zero_on"].items():
        nonzero = [k for k, v in layers[name].items()
                   if v != 0 and any(fnmatch(k, p) for p in zero_patterns)]
        check(not nonzero, f"{name}: predicted zeros hold {nonzero}")

    train = layers["train-b4"]
    s6 = train["s6.ss2d.fwd_s"] + train["s6.ss2d.bwd_s"]
    others = {k[: -len(".fwd_s")]: v + train.get(k[: -len("fwd_s")] + "bwd_s", 0.0)
              for k, v in train.items()
              if k.endswith(".fwd_s") and not k.startswith(("blocks.", "train.", "s6."))}
    check(all(s6 > v for v in others.values()),
          "train-b4: s6.ss2d forward + backward is the largest layer")
    check(layers["infer-cli"]["tensor.nodes"] == 0, "infer-cli: tensor.nodes is 0")
    ev = layers["eval-31b"]
    self_times = [v for k, v in ev.items()
                  if k.endswith((".fwd_s", ".self_s")) and not k.startswith(
                      ("blocks.", "train.", "data.synth_cube", "data.degrade"))]
    check(ev["metrics.ssim.fwd_s"] > 0.5 * sum(self_times),
          "eval-31b: metrics.ssim.fwd_s is most of an op")
    return 0


if __name__ == "__main__":
    sys.exit(main())
