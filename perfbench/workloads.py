"""Workload inputs: a scenario file, and for the CSV workload a PV data file.

Everything here is a pure function of the workload name and the seed, so the
same seed always gives byte-identical input files. The program only sees the
files; it never receives the seed except through the scenario it reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

PERIOD_S = 5.0
RATED_W = 3000.0
DAY_S = 86400.0

# Multi-day in-process lockstep: long enough that the per-step row objects,
# the frame log and the writers dominate, short enough for several
# operations in one run.
MULTIDAY_DAYS = 2
# Free-running over ingested CSV.
CSV_DAYS = 2
CSV_START_EPOCH_S = 1_717_200_000  # 2024-06-01T00:00:00Z
CSV_SUNRISE_S = 6 * 3600.0
CSV_SUNSET_S = 20 * 3600.0
CSV_DROP_P = 0.02  # independent single-row drops
CSV_OUTAGES_PER_DAY = 2  # runs of consecutive dropped rows
CSV_OUTAGE_ROWS = (12, 60)  # 1 to 5 minutes at 5 s
FREE_LATENCY_MS = 4000.0
FREE_JITTER_MS = 1500.0

WORKLOADS = ("multiday_inproc", "csv_free_running")


@dataclass(frozen=True)
class Workload:
    """Files made for one workload and seed, plus what the checks need."""

    name: str
    scenario_path: Path
    csv_rows: tuple[np.ndarray, np.ndarray] | None = None  # (epoch s, W) rows written


def _scenario(seed: int, transport: dict, source: dict) -> dict:
    """Default scenario (5 s, 30 min window, 5 %/min) with the given sections."""
    return {
        "sample_period_s": PERIOD_S,
        "window_s": 1800.0,
        "ramp_limit_pct_per_min": 5.0,
        "rr_interval_s": 60.0,
        "seed": seed,
        "transport": transport,
        "source": source,
    }


def _synth_source(days: int, seed: int) -> dict:
    return {
        "kind": "synth",
        "profile": "cloud_random",
        "duration_s": days * DAY_S,
        "rated_w": RATED_W,
        "seed": seed,
        "depth": 0.8,
        "mean_dwell_s": 240.0,
    }


def csv_trace(seed: int, days: float) -> tuple[np.ndarray, np.ndarray]:
    """Daily PV bells with seeded cloud dips, then seeded row drops.

    Returns the (epoch seconds, watts) rows that survive the drops. The first
    and last rows are always kept, so the resampled grid spans every day.
    """
    rng = np.random.default_rng([seed, 2])
    n = int(days * DAY_S / PERIOD_S)
    t = np.arange(n) * PERIOD_S
    tod = np.mod(t, DAY_S)
    phase = np.clip((tod - CSV_SUNRISE_S) / (CSV_SUNSET_S - CSV_SUNRISE_S), 0.0, 1.0)
    bell = RATED_W * np.sin(np.pi * phase) ** 2
    toggles = rng.random(n) < PERIOD_S / 300.0
    toggles[0] = False
    clouded = np.logical_xor.accumulate(toggles)
    depth = rng.uniform(0.5, 0.9, size=n)
    power = np.minimum(bell * np.where(clouded, 1.0 - depth, 1.0), RATED_W)

    keep = rng.random(n) >= CSV_DROP_P
    for _ in range(round(days * CSV_OUTAGES_PER_DAY)):
        length = int(rng.integers(CSV_OUTAGE_ROWS[0], CSV_OUTAGE_ROWS[1] + 1))
        start = int(rng.integers(1, n - length - 1))
        keep[start : start + length] = False
    keep[0] = keep[-1] = True
    return CSV_START_EPOCH_S + t[keep], power[keep]


def write_csv(path: Path, times_s: np.ndarray, power_w: np.ndarray) -> None:
    """ISO-8601 UTC stamps with a `Z` suffix; watts written with repr."""
    lines = ["timestamp,pv_w"]
    for ts, p in zip(times_s.tolist(), power_w.tolist()):
        stamp = datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        lines.append(f"{stamp},{p!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's input files into workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    scenario_path = workdir / "scenario.json"
    rows = None
    if name == "multiday_inproc":
        lockstep = {"mode": "lockstep", "latency_ms": 0.0, "jitter_ms": 0.0}
        doc = _scenario(seed, lockstep, _synth_source(MULTIDAY_DAYS, seed))
    elif name == "csv_free_running":
        rows = csv_trace(seed, CSV_DAYS)
        csv_path = workdir / "pv.csv"
        write_csv(csv_path, *rows)
        source = {
            "kind": "csv",
            "path": str(csv_path),
            "time_column": "timestamp",
            "power_column": "pv_w",
            "timestamp_format": "iso8601",
            "resample": "zero_order_hold",
            "sample_period_s": PERIOD_S,
            "rated_power_w": RATED_W,
        }
        free = {"mode": "free_running", "latency_ms": FREE_LATENCY_MS, "jitter_ms": FREE_JITTER_MS}
        doc = _scenario(seed, free, source)
    else:
        raise ValueError(f"unknown workload {name!r} (expected one of {WORKLOADS})")
    scenario_path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return Workload(name, scenario_path, rows)
