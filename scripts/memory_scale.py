#!/usr/bin/env python3
"""Memory of a long synthetic run, in the session's process and in its writer.

    PYTHONPATH=src python3 scripts/memory_scale.py [--days 1 30 365] [--period 5]

For each --days value a fresh interpreter makes a cloud_random series from
a synth source section, as `pvsmooth run` does, and runs the default
scenario on it in process, its artifacts written to a temporary directory
that is removed at the end (a 365-day run at 5 s writes about 3 GB there).
Prints per run the steps, the series' MiB, the rise of the session
process's peak RSS from just before the series is made to the end of the
run (also as a multiple of the series), the log writer process's peak RSS,
the PSS of both processes and the run's wall time. The writer is forked
once the series exists, so its peak RSS includes the pages it shares with
the session's process.

PSS (proportional set size, from /proc/<pid>/smaps_rollup) splits each
shared page between the processes that map it. The session's and the
writer's PSS are read together at one instant, just before
`run.LogWriter.close`: the session is over and the writer still holds its
last blocks. They are not peaks.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DAY_S = 86400


def peak_rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def pss_mib(pid: int | str) -> float:
    """The process's PSS now, from its smaps_rollup."""
    with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("Pss:")) / 1024.0


def measure(days: float, period_s: float) -> dict:
    """One run in this process; call it in a fresh interpreter."""
    import numpy.random  # noqa: F401  (imported by synth; kept out of the rise)

    from pvsmooth import run
    from pvsmooth.config import ScenarioConfig, validate_scenario
    from pvsmooth.run import resolve_source, run_scenario

    pss = {}
    close = run.LogWriter.close

    def close_after_pss(writer):
        pss["session_pss_mib"], pss["writer_pss_mib"] = pss_mib("self"), pss_mib(writer.pid)
        close(writer)

    run.LogWriter.close = close_after_pss

    cfg = validate_scenario(ScenarioConfig(sample_period_s=period_s, seed=1))
    source = {"kind": "synth", "profile": "cloud_random", "duration_s": days * DAY_S}
    before = peak_rss_mib(resource.RUSAGE_SELF)
    series = resolve_source(source, cfg)
    with tempfile.TemporaryDirectory(prefix="memory_scale-") as tmp:
        t0 = time.perf_counter()
        run_scenario(cfg, series, Path(tmp) / "out", source=source)
        seconds = time.perf_counter() - t0
    return {
        "days": days,
        "steps": len(series),
        "series_mib": series.samples.nbytes / 2**20,
        "session_rise_mib": peak_rss_mib(resource.RUSAGE_SELF) - before,
        "writer_peak_mib": peak_rss_mib(resource.RUSAGE_CHILDREN),
        **pss,
        "seconds": seconds,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--days", type=float, nargs="+", default=[1.0, 30.0, 365.0])
    parser.add_argument("--period", type=float, default=5.0, help="sample period [s]")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)  # measure in this process
    args = parser.parse_args()
    if args.one:
        print(json.dumps(measure(args.days[0], args.period)))
        return
    print(f"{'days':>6} {'steps':>9} {'series MiB':>10} {'session rise MiB':>20} {'writer peak MiB':>15} "
          f"{'session PSS MiB':>15} {'writer PSS MiB':>14} {'run s':>7}")
    for days in args.days:
        cmd = [sys.executable, __file__, "--one", "--days", str(days), "--period", str(args.period)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"{days} days: exited {proc.returncode}\n{proc.stderr}")
        r = json.loads(proc.stdout)
        rise = f"{r['session_rise_mib']:.1f} ({r['session_rise_mib'] / r['series_mib']:.2f}x)"
        print(f"{r['days']:>6g} {r['steps']:>9} {r['series_mib']:>10.1f} {rise:>20} "
              f"{r['writer_peak_mib']:>15.1f} {r['session_pss_mib']:>15.1f} {r['writer_pss_mib']:>14.1f} "
              f"{r['seconds']:>7.1f}")


if __name__ == "__main__":
    main()
