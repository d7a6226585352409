"""Print every metric of every workload, each workload in its own process.

    python3 perfbench/report.py [--seed 0] [--seconds N] [--trace 0|1]

For each workload this runs `run.py` once and prints its metrics by name
with their units and sample counts, plus `error_rate` (failed ops over ops
attempted). `--seconds` defaults to BENCHMARK.json's run_seconds. Exits
with 1 if any workload reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 600


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload; returns (result JSON, the lines printed before it)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    ok = True
    for workload in WORKLOAD_NAMES:
        result, lines = run_workload(workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
