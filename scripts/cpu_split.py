#!/usr/bin/env python3
"""Where a run's CPU goes: the session's process against its log writer.

    PYTHONPATH=src python3 scripts/cpu_split.py --workload multiday_inproc --seed 1 --runs 5 [--transport socket]

Prepares the benchmark workload's input files with perfbench's
`workloads.prepare` in a temporary directory, loads the scenario and makes
its input series once, then calls `run_scenario` --runs times on the
transport given (default inproc), each into a fresh directory that is
removed after the run. For each run it prints, per simulated step:

- wall: the time `run_scenario` took;
- session CPU: user + system time of this process (`RUSAGE_SELF`); on the
  socket transport that includes the controller, which the session serves
  in its own thread;
- writer CPU: user + system time of the reaped log writer process
  (`RUSAGE_CHILDREN`).

The last line gives the median of each over the runs. The pvsmooth that
PYTHONPATH names is the one measured, so the same script measures another
checkout's `src`. The temporary directory is removed at the end.
"""

from __future__ import annotations

import argparse
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402  (perfbench's input files, unchanged)

from pvsmooth.config import load_scenario  # noqa: E402
from pvsmooth.run import resolve_source, run_scenario  # noqa: E402


def cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--transport", choices=("inproc", "socket"), default="inproc")
    args = parser.parse_args(argv)

    rows = []
    with tempfile.TemporaryDirectory(prefix="cpu_split-") as tmp:
        wl = workloads.prepare(args.workload, args.seed, Path(tmp) / "inputs")
        cfg, source = load_scenario(wl.scenario_path)
        series = resolve_source(source, cfg)
        steps = len(series)
        print(f"{args.workload} seed {args.seed} over {args.transport}: {steps} steps; "
              "us/step wall, session CPU, writer CPU")
        for i in range(args.runs):
            self0, child0, t0 = cpu_s(resource.RUSAGE_SELF), cpu_s(resource.RUSAGE_CHILDREN), time.perf_counter()
            run_scenario(cfg, series, Path(tmp) / "run", transport=args.transport, source=source)
            wall = time.perf_counter() - t0
            session = cpu_s(resource.RUSAGE_SELF) - self0
            writer = cpu_s(resource.RUSAGE_CHILDREN) - child0
            shutil.rmtree(Path(tmp) / "run")
            rows.append([1e6 * s / steps for s in (wall, session, writer)])
            print(f"run {i + 1}: {rows[-1][0]:.1f} {rows[-1][1]:.1f} {rows[-1][2]:.1f}")
    medians = [statistics.median(col) for col in zip(*rows)]
    print(f"median: wall {medians[0]:.1f}, session CPU {medians[1]:.1f}, writer CPU {medians[2]:.1f} us/step")
    return 0


if __name__ == "__main__":
    sys.exit(main())
