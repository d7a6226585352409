"""The program interface the benchmark under `perfbench/` relies on.

The benchmark builds configs, calls public functions and lets its tracer
wrap module globals by name. Each workload is set up and warmed up here
under an installed tracer, as a traced benchmark run does, so removing a
config field the benchmark passes or renaming a function the tracer wraps
fails tier-1 rather than only the benchmark's own self-test.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_workload_runs_under_the_tracer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer
    from workloads import WORKLOADS, block_paths

    tracer = Tracer()
    try:
        tracer.install()
        tracer.phase = "op"
        for name, workload in WORKLOADS.items():
            work = tmp_path / name
            work.mkdir()
            wl = workload(0, work)
            wl.setup()
            wl.warm_up()
    finally:
        tracer.uninstall()
    traced = {n[len("blocks."):] for n in tracer.stats["op"]
              if n.startswith("blocks.")}
    assert traced == set(block_paths())
    assert "enc.1.hfse.0" in traced
