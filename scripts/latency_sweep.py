#!/usr/bin/env python3
"""Sensitivity of smoothing quality to control-loop latency.

Free-running mode decouples the plant clock from setpoint delivery, so a
laggy link leaves the battery holding stale setpoints. This sweep reruns
the cloudy fixture at increasing one-way latency and reports how the
delivered (grid) power degrades while the controller's own output stays
bounded by the averaging window. Each run's artifacts go to a temporary
directory that is removed when the sweep ends.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from pvsmooth.config import ScenarioConfig, TransportConfig, validate_scenario
from pvsmooth.ramp import ramp_report
from pvsmooth.run import run_scenario
from pvsmooth.series import PowerSeries
from pvsmooth.synth import synth_pv

LATENCIES_MS = [0.0, 100.0, 500.0, 2500.0, 5000.0, 10000.0, 20000.0]
SEED = 42


def main() -> None:
    series = synth_pv("cloud_random", 7200, 5, 3000.0, seed=SEED)
    raw = ramp_report(series, 60.0, 5.0)
    print(f"raw profile: max |RR| {raw.max_abs_rr:.1f} %/min, "
          f"{raw.violation_count} violations\n")
    print(f"{'latency_ms':>10}  {'grid max |RR|':>13}  {'grid violations':>15}  {'soc span':>9}")
    with tempfile.TemporaryDirectory(prefix="latency_sweep-") as tmp:
        for latency in LATENCIES_MS:
            cfg = validate_scenario(
                ScenarioConfig(
                    seed=SEED,
                    transport=TransportConfig(
                        mode="free_running", latency_ms=latency, jitter_ms=latency * 0.2
                    ),
                )
            )
            art = run_scenario(cfg, series, Path(tmp) / str(int(latency)))
            # grid power = what the feeder actually sees after the laggy battery;
            # float() reads the trace's repr-written values back bitwise
            with open(art.out_dir / "plant_trace.csv", encoding="utf-8") as fh:
                p_grid = np.array([float(row["p_grid_w"]) for row in csv.DictReader(fh)])
            grid = ramp_report(
                PowerSeries(p_grid, 5.0, 3000.0, _skip_validation=True), 60.0, 5.0,
                warmup_s=cfg.window_s,
            )
            span = art.soc.soc_max - art.soc.soc_min
            print(f"{latency:10.0f}  {grid.max_abs_rr:13.2f}  {grid.violation_count:15d}  {span:9.3f}")

if __name__ == "__main__":
    main()
