"""Benchmark entry point: one workload, one fresh process.

    python3 perfbench/run.py --workload train-b4 --seed 1 --seconds 30 --trace 0

Set-up runs SETUP_REPS times (input generation plus checkpoint or patch
set-up) and is followed by one warm-up op; then ops run back to back for
`--seconds`. setup_s is the import time plus the median set-up; the
warm-up op is left out of it, because one op's time is as noisy as a
single sample of op_s, and is printed instead. With `--trace 0` the last line of standard output is a JSON
object with the end-to-end metrics; with `--trace 1` it holds the per-layer
metrics of a traced run instead. The traced run measures half its ops
untraced and half traced, so it can report its own overhead.

The program is imported from `src/` next to this directory. BLAS is pinned
to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Listed here too because arguments are parsed before numpy is imported.
WORKLOAD_NAMES = ("train-b4", "infer-cli", "eval-31b")
SETUP_REPS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def set_up(wl) -> list[float]:
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - start)
    return times


def measure(wl, seconds: float, import_s: float):
    from workloads import OpClock

    setup = statistics.median(set_up(wl))
    start = time.perf_counter()
    wl.warm_up()
    warm_s = time.perf_counter() - start
    clock = OpClock()
    wl.run_ops(clock, seconds)
    quality = wl.quality()
    metrics = {
        "setup_s": (import_s + setup, "s"),
        "op_s": (statistics.median(clock.wall), "s"),
        "op_cpu_s": (statistics.median(clock.cpu), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "loss_final": (quality["loss_final"], "1"),
        "psnr_db": (quality["psnr_db"], "dB"),
    }
    samples = (f"setup_s: import + median of {SETUP_REPS} set-ups (warm-up op "
               f"{warm_s:.3f} s, not included); op_s, op_cpu_s: median of "
               f"{clock.attempted} ops")
    return metrics, samples, clock.attempted, clock.failed, quality


def measure_traced(wl, seconds: float):
    import stripesr.blocks
    from spans import Tracer
    from workloads import OpClock, block_paths

    tracer = Tracer()
    tracer.install()
    tracer.phase = "setup"
    set_up(wl)
    tracer.phase, tracer.mem_probe = None, True  # only ss2d's peak bytes are kept
    wl.warm_up()
    tracer.mem_probe = False
    tracer.uninstall()

    plain = OpClock()
    wl.run_ops(plain, seconds / 2)

    cache = stripesr.blocks._cached_order.cache_info
    before = cache()
    tracer.install()
    tracer.phase = "op"
    traced = OpClock(tracer, wl.op_span)
    wl.run_ops(traced, seconds / 2)
    tracer.phase = None
    tracer.uninstall()
    after = cache()
    quality = wl.quality()

    metrics = tracer.metrics(
        n_ops=traced.attempted,
        setup_reps=SETUP_REPS,
        block_paths=block_paths(),
        cache_hits=after.hits - before.hits,
        cache_misses=after.misses - before.misses,
        coverage=statistics.mean(traced.coverage),
        overhead=statistics.median(traced.wall) / statistics.median(plain.wall),
    )
    samples = (f"per op over {traced.attempted} traced ops, set-up functions per "
               f"set-up; overhead against {plain.attempted} untraced ops")
    attempted = plain.attempted + traced.attempted
    return metrics, samples, attempted, plain.failed + traced.failed, quality


def load_program() -> float | None:
    """Pin BLAS to one thread and import the program from `src/`.

    Returns the import seconds, or None when the source is missing."""
    if not (SRC / "stripesr" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return None
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import stripesr
    import_s = time.perf_counter() - start
    if Path(stripesr.__file__).resolve().parent != SRC / "stripesr":
        print(f"error: imported stripesr from {stripesr.__file__}", file=sys.stderr)
        return None
    return import_s


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = load_program()
    if import_s is None:
        return 2
    import numpy as np
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            result = measure_traced(wl, args.seconds)
        else:
            result = measure(wl, args.seconds, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still uses it
            pass
    metrics, samples, attempted, failed, quality = result

    correct = failed == 0 and all(np.isfinite(v) for v in quality.values())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {attempted}  failed {failed}  error_rate {failed / attempted:g}")
    print("env " + json.dumps(environment(np)))
    print("samples " + samples)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
