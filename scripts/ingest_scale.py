#!/usr/bin/env python3
"""Ingest time and memory on a year-long, high-resolution PV trace.

    PYTHONPATH=src python3 scripts/ingest_scale.py [--days 365] [--period 5] [--format iso8601|epoch_s] [--repeat 1]

Writes a CSV of stamps every --period seconds for --days days (6,307,200
rows for the defaults, daily PV bells with seeded cloud dips and 2 % of rows
dropped) into a temporary directory, then ingests it with zero-order hold as
a scenario's csv source would. The stamps are ISO-8601 with a `Z` suffix
(about 230 MB for the defaults) or, with --format epoch_s, epoch seconds.
With --repeat N the file is ingested N times in a row. Prints the median
ingest time per file and per row, and the process's peak RSS before the
first ingest and after the last. The file is written in blocks, so the peak
before the ingest is the interpreter and numpy alone. The directory is
removed at the end.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from pvsmooth.ingest import TIMESTAMP_FORMATS, IngestSpec, ingest_csv

START = np.datetime64("2024-01-01T00:00:00", "s")
BLOCK_ROWS = 100_000


def write_trace(path: Path, days: float, period_s: int, fmt: str, seed: int = 1) -> int:
    """The trace's kept rows, written block by block; returns their count."""
    rng = np.random.default_rng(seed)
    n = int(days * 86400 // period_s)
    kept = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,pv_w\n")
        for lo in range(0, n, BLOCK_ROWS):
            t = np.arange(lo, min(lo + BLOCK_ROWS, n)) * period_s
            phase = np.clip((t % 86400 - 6 * 3600) / (14 * 3600), 0.0, 1.0)
            power = 3000.0 * np.sin(np.pi * phase) ** 2 * np.where(rng.random(t.size) < 0.3, 0.4, 1.0)
            keep = rng.random(t.size) >= 0.02
            if lo == 0:
                keep[0] = True  # the first and last rows fix the grid's span
            if lo + t.size == n:
                keep[-1] = True
            if fmt == "iso8601":
                stamps = (f"{s}Z" for s in np.datetime_as_string(START + t[keep], unit="s").tolist())
            else:
                stamps = map(repr, (START.astype(np.int64) + t[keep]).astype(np.float64).tolist())
            fh.writelines(f"{s},{p!r}\n" for s, p in zip(stamps, power[keep].tolist()))
            kept += int(keep.sum())
    return kept


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--days", type=float, default=365.0)
    parser.add_argument("--period", type=int, default=5, help="sample period [s]")
    parser.add_argument("--format", choices=TIMESTAMP_FORMATS, default="iso8601", help="how the stamps are written")
    parser.add_argument("--repeat", type=int, default=1, help="ingests of the one file; the median is reported")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    with tempfile.TemporaryDirectory(prefix="ingest_scale-") as tmp:
        path = Path(tmp) / "pv.csv"
        rows = write_trace(path, args.days, args.period, args.format)
        size_mb = path.stat().st_size / 1e6
        spec = IngestSpec(
            path=str(path), time_column="timestamp", power_column="pv_w", timestamp_format=args.format,
            resample="zero_order_hold", sample_period_s=float(args.period), rated_power_w=3000.0,
        )
        before = peak_rss_mib()
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            result = ingest_csv(spec)
            times.append(time.perf_counter() - t0)
            samples, gaps_filled = len(result.series), result.gaps_filled
            del result  # no two runs' grids are alive at once
        seconds = statistics.median(times)
        after = peak_rss_mib()
    print(f"rows          {rows} ({size_mb:.0f} MB), {samples} samples, {gaps_filled} gaps filled")
    print(f"ingest        {seconds:.2f} s ({1e6 * seconds / rows:.2f} us/row), median of {args.repeat}")
    print(f"peak RSS      {before:.1f} MiB before ingest, {after:.1f} MiB after "
          f"({(after - before) * 2**20 / rows:.0f} B/row)")


if __name__ == "__main__":
    main()
