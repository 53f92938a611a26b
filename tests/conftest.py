"""Shared fixtures and independent reference oracles."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from pvsmooth.config import BatteryParams, ScenarioConfig, validate_scenario
from pvsmooth.controller import SmoothingController
from pvsmooth.series import PowerSeries


def naive_zero_padded_mean(x: np.ndarray, n: int) -> np.ndarray:
    """Reference smoother: mean of the last min(k, n) inputs padded with zeros.

    Uses numpy's pairwise window sums, a different summation path than the
    controller's running sum.
    """
    z = np.concatenate([np.zeros(n - 1, dtype=np.float64), np.asarray(x, dtype=np.float64)])
    return sliding_window_view(z, n).sum(axis=1) / n


def smooth_array(controller: SmoothingController, p_pv_w: np.ndarray) -> np.ndarray:
    """Buffer means for a whole input array, one controller.step per sample."""
    out = np.empty(len(p_pv_w), dtype=np.float64)
    for i, p in enumerate(p_pv_w):
        out[i] = controller.step(p, 1.0)[0]
    return out


def read_hexdump(path: str | Path) -> list[tuple[str, bytes]]:
    """The (tag, frame bytes) pairs of a hex dump (frames.hexdump)."""
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        tag, hexpart = line.rsplit(" ", 1)
        out.append((tag, bytes.fromhex(hexpart)))
    return out


def direct_ramp_rates(samples: np.ndarray, stride: int, interval_s: float, rated_w: float) -> np.ndarray:
    """Reference ramp evaluation, written straight from the definition."""
    out = []
    i = stride
    while i < len(samples):
        dp = samples[i] - samples[i - stride]
        out.append(100.0 * dp / ((interval_s / 60.0) * rated_w))
        i += stride
    return np.asarray(out)


def brute_force_bins(values, edges) -> list[int]:
    """Per-value linear scan over half-open bins (last bin right-closed)."""
    counts = [0] * (len(edges) - 1)
    for v in values:
        for j in range(len(counts)):
            last = j == len(counts) - 1
            if edges[j] <= v < edges[j + 1] or (last and v == edges[j + 1]):
                counts[j] += 1
                break
    return counts


@pytest.fixture
def default_cfg() -> ScenarioConfig:
    return validate_scenario(ScenarioConfig())


@pytest.fixture
def small_cfg() -> ScenarioConfig:
    """Short window for fast closed-loop tests: N=4 at 5 s."""
    return validate_scenario(ScenarioConfig(window_s=20.0))


def ideal_battery(nominal_v: float = 64.0) -> BatteryParams:
    """Lossless battery for exact-arithmetic runs: power-of-two terminal
    voltage, zero resistance, effectively infinite capacity, no SOC guard."""
    return BatteryParams(
        capacity_wh=1e9,
        nominal_voltage_v=nominal_v,
        v_min_v=nominal_v / 2,
        v_max_v=nominal_v * 2,
        internal_resistance_ohm=0.0,
        current_limit_a=55.0,
        soc_min=0.0,
        soc_max=1.0,
        soc_init=0.5,
        coulombic_efficiency=1.0,
        voltage_model="constant",
        enforce_soc_limits=False,
    )


def column_bytes(table) -> dict[str, bytes]:
    """Every column of a Columns table as raw bytes: equal only if bitwise
    equal, so -0.0 differs from 0.0 and NaN equals the same NaN."""
    return {name: getattr(table, name).tobytes() for name in table.names}


def session_bytes(result) -> tuple:
    """Frame log, wire bytes, plant trace and controller log of a session, bitwise."""
    return (
        column_bytes(result.log.frames),
        bytes(result.log.wire),
        column_bytes(result.plant.trace),
        column_bytes(result.controller.log),
    )


def report_bytes(report) -> tuple:
    """A ramp report's fields, its arrays as raw bytes: equal only if
    bitwise equal."""
    hist = report.histogram
    scalars = {k: v for k, v in vars(report).items() if k not in ("rr_pct_per_min", "histogram")}
    return scalars, report.rr_pct_per_min.tobytes(), hist.bin_edges.tobytes(), hist.counts.tobytes()


def read_csv_columns(path: str | Path) -> dict[str, np.ndarray]:
    """The columns of a CSV artifact, every cell parsed with float(). The
    run writes floats with repr, so the values read back bitwise (-0.0,
    NaN and inf included)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    names = lines[0].split(",")
    cells = np.array([[float(c) for c in line.split(",")] for line in lines[1:]], dtype=np.float64)
    cells = cells.reshape(len(lines) - 1, len(names))
    return {name: cells[:, i] for i, name in enumerate(names)}


def constant_series(value_w: float, n: int, rated_w: float = 3000.0, period_s: float = 5.0) -> PowerSeries:
    return PowerSeries([value_w] * n, period_s, rated_w)
