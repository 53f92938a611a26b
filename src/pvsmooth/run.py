"""Scenario orchestration: wire everything up, run, check, and write artifacts.

A run takes a validated scenario and an input trace, executes the closed
loop over the configured transport, verifies the core invariants online,
and writes a deterministic artifact set:

    plant_trace.csv       per-step plant state (k, powers, currents, soc)
    controller_log.csv    per-step controller state (k, p_hat, p_batt, i_set)
    metrics.json          ramp reports, SOC summary, config hash, versions
    raw_rates.csv         evaluation-time/rate pairs for plotting
    smoothed_rates.csv
    histogram.csv         rate distributions, raw and smoothed
    frames.hex            hex dump of every bus frame with timing

All files are written atomically and contain no wall-clock timestamps, so a
repeated run with identical inputs is byte-identical.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .bus import SessionResult, run_session
from .config import ConfigError, ScenarioConfig, config_hash, validate_scenario
from .frames import write_hexdump
from .ingest import IngestSpec, ingest_csv
from .ramp import RampReport, ramp_report, report_to_dict, write_rates_file
from .series import PowerSeries, scale_series
from .synth import synth_pv
from .util import Columns, atomic_write_text


class InvariantViolation(RuntimeError):
    """A core run invariant failed; carries the offending step index."""

    def __init__(self, message: str, step: int = -1):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class SocSummary:
    soc_min: float
    soc_max: float
    soc_final: float
    clamp_events: int


@dataclass(frozen=True)
class RunArtifacts:
    """Everything a finished run produced."""

    out_dir: Path
    plant_trace_path: Path
    controller_log_path: Path
    metrics_path: Path
    raw_rates_path: Path
    smoothed_rates_path: Path
    histogram_path: Path
    frames_path: Path
    raw_report: RampReport
    raw_report_postwarmup: RampReport
    smoothed_report: RampReport
    smoothed_report_postwarmup: RampReport
    soc: SocSummary
    config_digest: str
    session: SessionResult
    smoothed_series: PowerSeries


def write_controller_log(log: Columns, path: Path) -> None:
    atomic_write_text(path, log.csv_chunks())


def write_plant_trace(trace: Columns, path: Path) -> None:
    atomic_write_text(path, trace.csv_chunks())


def _write_histogram_csv(reports: dict[str, RampReport], path: Path) -> None:
    lines = ["series,bin_lo,bin_hi,count"]
    for name, rep in reports.items():
        edges, counts = rep.histogram.bin_edges, rep.histogram.counts
        for i in range(len(counts)):
            lines.append(f"{name},{float(edges[i])!r},{float(edges[i + 1])!r},{int(counts[i])}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def check_run_invariants(session: SessionResult, cfg: ScenarioConfig) -> None:
    """Conservation and SOC bounds over the whole run; raises on any breach.

    Conservation is checked bitwise by recomputing the defining subtraction
    p_batt = p_pv - p_hat from the logged values. SOC bounds are also
    enforced step-by-step inside the plant; this re-checks the trace.
    """
    log = session.controller.log
    k = log.numpy("k")
    p_pv, p_hat, p_batt = log.numpy("p_pv_w"), log.numpy("p_hat_w"), log.numpy("p_batt_w")
    live = k != 0  # k=0 marks a lost sample (corrupt frame); no arithmetic to check
    breach = live & (p_batt != p_pv - p_hat)
    with np.errstate(divide="ignore", invalid="ignore"):  # faulted rows may have v <= 0
        i_set = p_batt / log.numpy("v_batt_v")
    skew = live & (log.numpy("fault") == 0) & (log.numpy("i_set_a") != i_set)
    bad = np.flatnonzero(breach | skew)
    if bad.size:
        i = bad[0]
        step = int(k[i])
        if breach[i]:
            raise InvariantViolation(
                f"conservation breach at controller step {step}: p_batt {float(p_batt[i])!r} "
                f"!= p_pv - p_hat {(float(p_pv[i]) - float(p_hat[i]))!r}",
                step=step,
            )
        raise InvariantViolation(f"setpoint identity breach at controller step {step}", step=step)
    b = cfg.battery
    if b.enforce_soc_limits:
        soc = session.plant.trace.numpy("soc")
        bad = np.flatnonzero(~((b.soc_min <= soc) & (soc <= b.soc_max)))
        if bad.size:
            i = bad[0]
            step = int(session.plant.trace.k[i])
            raise InvariantViolation(
                f"soc {float(soc[i])} outside [{b.soc_min}, {b.soc_max}] at plant step {step}",
                step=step,
            )


def smoothed_series_from(session: SessionResult, series: PowerSeries) -> PowerSeries:
    """Controller output p_hat as a trace on the same grid and rating."""
    log = session.controller.log
    p_hat = log.numpy("p_hat_w")[log.numpy("k") > 0]
    return PowerSeries(
        samples=p_hat,
        sample_period_s=series.sample_period_s,
        rated_power_w=series.rated_power_w,
        start_time_s=series.start_time_s,
        _skip_validation=True,  # quantized inputs may nudge p_hat past rated
    )


def resolve_source(source: dict[str, Any] | None, cfg: ScenarioConfig) -> PowerSeries:
    """Materialize the scenario's input trace from its `source` section."""
    if source is None:
        raise ConfigError(["source: scenario file has no source section and no input was given"])
    kind = source.get("kind")
    if kind == "synth":
        args = {k: v for k, v in source.items() if k != "kind"}
        profile = args.pop("profile", "clear")
        duration_s = float(args.pop("duration_s", 7200.0))
        sample_period_s = float(args.pop("sample_period_s", cfg.sample_period_s))
        rated_w = float(args.pop("rated_w", 3000.0))
        if "seed" not in args and profile == "cloud_random":
            args["seed"] = cfg.seed
        return synth_pv(profile, duration_s, sample_period_s, rated_w, **args)
    if kind == "csv":
        args = {k: v for k, v in source.items() if k != "kind"}
        args.setdefault("sample_period_s", cfg.sample_period_s)
        return ingest_csv(IngestSpec(**args)).series
    raise ConfigError([f"source.kind: {kind!r} not one of ('synth', 'csv')"])


def run_scenario(
    cfg: ScenarioConfig,
    series: PowerSeries,
    out_dir: str | Path,
    *,
    transport: str = "inproc",
    source: dict[str, Any] | None = None,
) -> RunArtifacts:
    """Execute one experiment end to end and write its artifact set."""
    cfg = validate_scenario(cfg)
    if abs(series.sample_period_s - cfg.sample_period_s) > 1e-9 * cfg.sample_period_s:
        raise ConfigError(
            [f"input series period {series.sample_period_s} s does not match "
             f"scenario sample_period_s {cfg.sample_period_s} s"]
        )
    if cfg.scale_to_rated_w is not None:
        series = scale_series(series, cfg.scale_to_rated_w)
    if len(series) < 1:
        raise ConfigError(["input series is empty"])

    session = run_session(series, cfg, transport)
    check_run_invariants(session, cfg)

    smoothed = smoothed_series_from(session, series)
    limit = cfg.ramp_limit_pct_per_min
    raw_rep = ramp_report(series, cfg.rr_interval_s, limit)
    raw_rep_post = ramp_report(series, cfg.rr_interval_s, limit, warmup_s=cfg.window_s)
    smooth_rep = ramp_report(smoothed, cfg.rr_interval_s, limit)
    smooth_rep_post = ramp_report(smoothed, cfg.rr_interval_s, limit, warmup_s=cfg.window_s)

    socs = session.plant.trace.numpy("soc")
    soc = SocSummary(
        soc_min=float(socs.min()),
        soc_max=float(socs.max()),
        soc_final=float(socs[-1]),
        clamp_events=session.plant.battery.clamp_events,
    )
    digest = config_hash(cfg, source)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "plant": out / "plant_trace.csv",
        "ctrl": out / "controller_log.csv",
        "metrics": out / "metrics.json",
        "raw_rates": out / "raw_rates.csv",
        "smoothed_rates": out / "smoothed_rates.csv",
        "hist": out / "histogram.csv",
        "frames": out / "frames.hex",
    }

    write_plant_trace(session.plant.trace, paths["plant"])
    write_controller_log(session.controller.log, paths["ctrl"])
    write_rates_file(raw_rep, paths["raw_rates"], sample_period_s=series.sample_period_s)
    write_rates_file(smooth_rep, paths["smoothed_rates"], sample_period_s=series.sample_period_s)
    _write_histogram_csv({"raw": raw_rep, "smoothed": smooth_rep}, paths["hist"])
    write_hexdump(session.log.tagged_bytes(), paths["frames"])

    metrics = {
        "config_hash": digest,
        "seed": cfg.seed,
        "versions": {
            "pvsmooth": __version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": np.__version__,
        },
        "transport": transport,
        "mode": cfg.transport.mode,
        "n_samples": len(series),
        "rated_power_w": series.rated_power_w,
        "sample_period_s": series.sample_period_s,
        "window_samples": cfg.n_window,
        "soc": {
            "min": soc.soc_min,
            "max": soc.soc_max,
            "final": soc.soc_final,
            "clamp_events": soc.clamp_events,
        },
        "controller": {"error_count": session.controller.error_count},
        "ramp": {
            "raw": report_to_dict(raw_rep),
            "raw_excluding_warmup": report_to_dict(raw_rep_post),
            "smoothed": report_to_dict(smooth_rep),
            "smoothed_excluding_warmup": report_to_dict(smooth_rep_post),
        },
    }
    atomic_write_text(paths["metrics"], json.dumps(metrics, indent=2, sort_keys=True) + "\n")

    return RunArtifacts(
        out_dir=out,
        plant_trace_path=paths["plant"],
        controller_log_path=paths["ctrl"],
        metrics_path=paths["metrics"],
        raw_rates_path=paths["raw_rates"],
        smoothed_rates_path=paths["smoothed_rates"],
        histogram_path=paths["hist"],
        frames_path=paths["frames"],
        raw_report=raw_rep,
        raw_report_postwarmup=raw_rep_post,
        smoothed_report=smooth_rep,
        smoothed_report_postwarmup=smooth_rep_post,
        soc=soc,
        config_digest=digest,
        session=session,
        smoothed_series=smoothed,
    )
