"""Ramp-rate metrics and compliance scoring.

The ramp rate at evaluation time t over an interval dt is

    RR(t) = 100 * (P(t) - P(t - dt)) / (dt_minutes * P_rated)     [%/min]

so a full-range swing in one minute is 100 %/min regardless of plant size.
Evaluation points advance by the full interval (non-overlapping, the
default) or by one sample (sliding) for sensitivity studies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Any

import numpy as np

from .config import InputError
from .series import PowerSeries
from .util import AtomicWriter, atomic_write_text


class RampMetricError(InputError):
    """A ramp metric asked of a series it cannot be computed on."""


@dataclass(frozen=True, eq=False)
class Histogram:
    """Counts over symmetric bins centered on zero."""

    bin_edges: np.ndarray  # length n_bins + 1, %/min
    counts: np.ndarray  # length n_bins, ints


@dataclass(frozen=True, eq=False)
class RampReport:
    """Per-point ramp rates plus summary statistics.

    rr_pct_per_min always covers every evaluation point; warmup_skipped
    leading points are excluded from max/violation statistics (the averaging
    buffer starts zero-filled, so early smoothed output is biased low). The
    histogram covers all points.
    """

    rr_pct_per_min: np.ndarray
    rr_interval_s: float
    limit_pct_per_min: float
    warmup_skipped: int
    max_abs_rr: float
    violation_count: int
    violation_fraction: float
    histogram: Histogram

    @property
    def passed(self) -> bool:
        return self.violation_count == 0


def stride_for(n_samples: int, sample_period_s: float, rr_interval_s: float) -> int:
    """Samples per evaluation interval of a series of n_samples; raises
    unless the interval is a whole number of samples and the series covers it."""
    ratio = rr_interval_s / sample_period_s
    stride = round(ratio)
    if stride < 1 or abs(ratio - stride) > 1e-9:
        raise RampMetricError(
            f"rr_interval_s {rr_interval_s} is not a positive multiple of the "
            f"sample period {sample_period_s}"
        )
    if n_samples <= stride:
        raise RampMetricError(
            f"series of {n_samples} samples does not cover one "
            f"{rr_interval_s} s evaluation interval"
        )
    return stride


def ramp_rate_series(
    series: PowerSeries, rr_interval_s: float, *, sliding: bool = False
) -> np.ndarray:
    """Ramp rate (%/min) at each evaluation point of a trace.

    Non-overlapping mode evaluates at t = dt, 2*dt, ...; sliding mode at
    every sample from the first full interval onward. Sign is preserved:
    drops are negative.
    """
    stride = stride_for(len(series), series.sample_period_s, rr_interval_s)
    x = series.samples
    if sliding:
        head, tail = x[stride:], x[:-stride]
    else:
        idx = np.arange(stride, len(x), stride)
        head, tail = x[idx], x[idx - stride]
    dt_min = rr_interval_s / 60.0
    return 100.0 * (head - tail) / (dt_min * series.rated_power_w)


def histogram(rates: np.ndarray, bin_width: float) -> Histogram:
    """Bin rates into uniform bins symmetric about zero (zero is a bin center).

    Bins are half-open [lo, hi) except the last, which includes its upper
    edge, so the counts always sum to the input length.
    """
    if not bin_width > 0:
        raise RampMetricError(f"bin_width must be > 0, got {bin_width}")
    x = np.asarray(rates, dtype=np.float64)
    if x.size == 0:
        raise RampMetricError("cannot histogram an empty rate list")
    max_abs = float(np.abs(x).max())
    half = bin_width / 2.0
    n_half = 0 if max_abs <= half else int(np.ceil((max_abs - half) / bin_width))
    if n_half > 1_000_000:
        raise RampMetricError(
            f"bin_width {bin_width} needs {2 * n_half + 1} bins to cover |RR| {max_abs}"
        )
    edges = (np.arange(2 * n_half + 2) - (n_half + 0.5)) * bin_width
    counts, _ = np.histogram(x, bins=edges)
    return Histogram(bin_edges=edges, counts=counts)


def warmup_skip_count(
    n_rates: int, warmup_s: float, sample_period_s: float, rr_interval_s: float, *, sliding: bool = False
) -> int:
    """Evaluation points whose earlier endpoint falls inside the warm-up span.

    A point at sample index i compares P[i] with P[i - stride]; it is
    excluded when i - stride lands before the first post-warm-up sample,
    n_warm. Point j has i - stride = j when sliding and j * stride when not,
    so the first n_warm, or ceil(n_warm / stride), points are excluded.
    """
    if warmup_s <= 0:
        return 0
    stride = round(rr_interval_s / sample_period_s)
    if stride < 1:
        raise RampMetricError(
            f"rr_interval_s {rr_interval_s} is under one sample period {sample_period_s}"
        )
    n_warm = int(np.ceil(warmup_s / sample_period_s - 1e-9))
    return min(n_rates, n_warm if sliding else -(-n_warm // stride))


def ramp_report(
    series: PowerSeries,
    rr_interval_s: float,
    limit_pct_per_min: float,
    *,
    bin_width: float = 1.0,
    warmup_s: float = 0.0,
    sliding: bool = False,
) -> RampReport:
    """Full ramp report: rates, limit verdict, and distribution."""
    rates = ramp_rate_series(series, rr_interval_s, sliding=sliding)
    skip = warmup_skip_count(
        rates.size, warmup_s, series.sample_period_s, rr_interval_s, sliding=sliding
    )
    if limit_pct_per_min < 0:
        raise RampMetricError(f"limit must be >= 0, got {limit_pct_per_min}")
    scored = rates[skip:]
    violations = int(np.count_nonzero(np.abs(scored) > limit_pct_per_min))
    return RampReport(
        rr_pct_per_min=rates,
        rr_interval_s=float(rr_interval_s),
        limit_pct_per_min=float(limit_pct_per_min),
        warmup_skipped=skip,
        max_abs_rr=float(np.abs(scored).max()) if scored.size else 0.0,
        violation_count=violations,
        violation_fraction=violations / scored.size if scored.size else 0.0,
        histogram=histogram(rates, bin_width),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def report_to_dict(report: RampReport) -> dict[str, Any]:
    return {
        "rr_interval_s": report.rr_interval_s,
        "limit_pct_per_min": report.limit_pct_per_min,
        "n_points": int(report.rr_pct_per_min.size),
        "warmup_skipped": report.warmup_skipped,
        "max_abs_rr_pct_per_min": report.max_abs_rr,
        "violation_count": report.violation_count,
        "violation_fraction": report.violation_fraction,
        "passed": report.passed,
        "rr_pct_per_min": [float(v) for v in report.rr_pct_per_min],
        "histogram": {
            "bin_edges": [float(v) for v in report.histogram.bin_edges],
            "counts": [int(c) for c in report.histogram.counts],
        },
    }


def write_report_json(report: RampReport, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n")


def write_rates_file(
    report: RampReport,
    out: AtomicWriter,
    *,
    sample_period_s: float,
    start_time_s: float = 0.0,
    sliding: bool = False,
) -> None:
    """Two-column plot file: evaluation time (s) and ramp rate (%/min)."""
    stride = round(report.rr_interval_s / sample_period_s)
    n = len(report.rr_pct_per_min)
    steps = range(stride, stride + n) if sliding else range(stride, (n + 1) * stride, stride)
    times = (float(start_time_s + i * sample_period_s) for i in steps)
    lines = (f"{t!r},{float(rr)!r}\n" for t, rr in zip(times, report.rr_pct_per_min))
    out.write(b"t_s,rr_pct_per_min\n")
    while chunk := "".join(islice(lines, 256)):  # a few lines at a time: the file is not held whole
        out.write(chunk.encode())
