"""Delimited-text ingestion of PV power traces.

Reads (time, power) columns from a CSV-style file into a PowerSeries.
Timestamps are epoch seconds or ISO-8601 (naive stamps are taken as UTC).
Without resampling, the input must already sit on a strict uniform grid;
with zero-order-hold resampling, rows are sorted by time and gaps are filled
by holding the last observed value. Negative readings are rejected unless
clamp_negative is set, in which case they are zeroed and counted.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from math import isfinite
from pathlib import Path

import numpy as np

from .series import PowerSeries
from .util import atomic_write_text, chunked

TIMESTAMP_FORMATS = ("epoch_s", "iso8601")
RESAMPLE_MODES = ("none", "zero_order_hold")


class IngestError(ValueError):
    """Input-file problem; messages carry 1-based line numbers where known."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class IngestSpec:
    """How to read one PV data file."""

    path: str
    time_column: str = "t_s"
    power_column: str = "power_w"
    timestamp_format: str = "epoch_s"
    resample: str = "none"
    sample_period_s: float | None = None  # required for resampling
    clamp_negative: bool = False
    rated_power_w: float | None = None  # None: use the series maximum
    delimiter: str = ","


@dataclass(frozen=True)
class IngestResult:
    series: PowerSeries
    rows_read: int
    clamped_count: int
    gaps_filled: int


def _parse_iso(raw: str) -> float:
    dt = datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))
    return (dt.replace(tzinfo=timezone.utc) if dt.tzinfo is None else dt).timestamp()


def _read_rows(spec: IngestSpec, path: Path) -> tuple[np.ndarray, np.ndarray, int]:
    """The accepted rows as (times, powers) float arrays, and how many were clamped."""
    times, powers = array("d"), array("d")
    add_time, add_power = times.append, powers.append
    parse_time = float if spec.timestamp_format == "epoch_s" else _parse_iso
    errors, clamped = [], 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter=spec.delimiter)
            header = next(reader, None)
            if header is None:
                raise IngestError([f"{path}: empty file"])
            # as csv.DictReader: a name's last column wins, blank rows are skipped, short rows read None
            column = {name: i for i, name in enumerate(header)}
            missing = {spec.time_column, spec.power_column} - column.keys()
            if missing:
                raise IngestError([f"{path}: missing column {c!r} (found {header})" for c in sorted(missing)])
            ti, pi = column[spec.time_column], column[spec.power_column]
            for row in reader:
                if not row:
                    continue
                raw = row[ti] if ti < len(row) else None
                try:
                    t = parse_time(raw)
                except (AttributeError, TypeError, ValueError):  # None.strip() is an AttributeError
                    errors.append(f"line {reader.line_num}: unparseable time {raw!r}")
                    continue
                raw = row[pi] if pi < len(row) else None
                try:
                    p = float(raw)
                except (TypeError, ValueError):
                    errors.append(f"line {reader.line_num}: unparseable power {raw!r}")
                    continue
                if not isfinite(p):
                    errors.append(f"line {reader.line_num}: non-finite power {p}")
                elif p < 0.0 and not spec.clamp_negative:
                    errors.append(f"line {reader.line_num}: negative power {p} (enable clamp_negative to zero it)")
                else:
                    if p < 0.0:
                        p = 0.0
                        clamped += 1
                    add_time(t)
                    add_power(p)
    except UnicodeDecodeError as exc:
        raise IngestError([f"{path}: not UTF-8 text ({exc})"]) from exc

    if errors:
        raise IngestError(errors)
    if not times:
        raise IngestError([f"{path}: no data rows"])
    return np.frombuffer(times, dtype=np.float64), np.frombuffer(powers, dtype=np.float64), clamped


def ingest_csv(spec: IngestSpec) -> IngestResult:
    """Read a PV trace per the spec; collects every row error before failing."""
    if spec.timestamp_format not in TIMESTAMP_FORMATS:
        raise IngestError([f"timestamp_format {spec.timestamp_format!r} not one of {TIMESTAMP_FORMATS}"])
    if spec.resample not in RESAMPLE_MODES:
        raise IngestError([f"resample {spec.resample!r} not one of {RESAMPLE_MODES}"])
    if spec.resample == "zero_order_hold" and not (spec.sample_period_s and spec.sample_period_s > 0):
        raise IngestError(["sample_period_s: required (> 0) when resampling"])

    path = Path(spec.path)
    if not path.exists():
        raise IngestError([f"{path}: file not found"])
    if path.is_dir():
        raise IngestError([f"{path}: is a directory, not a CSV file"])

    t_arr, p_arr, clamped = _read_rows(spec, path)
    rows_read = len(t_arr)
    gaps_filled = 0

    if spec.resample == "none":
        dts = np.diff(t_arr)
        if len(dts) and (dts <= 0).any():
            bad = int(np.argmax(dts <= 0))
            raise IngestError(
                [f"non-monotone timestamps at row {bad + 2} (t={t_arr[bad + 1]}); enable resampling"]
            )
        if len(dts):
            period = float(dts[0])
            if not np.allclose(dts, period, rtol=1e-6, atol=0.0):
                raise IngestError(["non-uniform sample spacing; enable resampling"])
        else:
            period = spec.sample_period_s or 1.0
        if spec.sample_period_s and len(dts) and abs(period - spec.sample_period_s) > 1e-6 * spec.sample_period_s:
            raise IngestError(
                [f"data period {period} s does not match requested {spec.sample_period_s} s"]
            )
        grid_p = p_arr
        start = float(t_arr[0])
    else:
        # each array is let go as soon as it is used, so no more than three
        # grid-sized float arrays are alive at once
        order = np.argsort(t_arr, kind="stable")
        t_arr, p_arr = t_arr[order], p_arr[order]
        del order
        if (np.diff(t_arr) == 0.0).any():
            dup = int(np.argmax(np.diff(t_arr) == 0.0))
            raise IngestError([f"duplicate timestamp t={t_arr[dup]}"])
        period = float(spec.sample_period_s)  # validated above
        start = float(t_arr[0])
        n = int(np.floor((t_arr[-1] - start) / period + 1e-9)) + 1
        grid_t = start + np.arange(n) * period
        idx = np.searchsorted(t_arr, grid_t + 1e-9 * period, side="right") - 1
        grid_p = p_arr[idx]
        del p_arr
        # a grid point is "filled" when the held observation is older than it
        held = t_arr[idx]
        del idx
        held -= grid_t
        del grid_t
        np.abs(held, out=held)
        gaps_filled = int(np.count_nonzero(held > 1e-6 * period))
        del held

    rated = spec.rated_power_w if spec.rated_power_w is not None else float(grid_p.max())
    if not rated > 0:
        raise IngestError(["cannot infer a positive rated power (all samples zero?); set rated_power_w"])

    series = PowerSeries(
        samples=grid_p, sample_period_s=period, rated_power_w=rated, start_time_s=start
    )
    return IngestResult(series=series, rows_read=rows_read, clamped_count=clamped, gaps_filled=gaps_filled)


def write_series_csv(series: PowerSeries, path: str | Path) -> None:
    """Canonical two-column form: epoch seconds and watts, full precision."""
    rows = zip(map(float, series.times_s()), map(float, series.samples))
    atomic_write_text(path, chunked(chain(["t_s,power_w\n"], (f"{t!r},{p!r}\n" for t, p in rows))))
