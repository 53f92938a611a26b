"""Command-line interface.

Subcommands: run, ingest, synth, metrics, protocol-check.
Exit codes: 0 success, 2 invariant breach, 3 input error, 4 protocol fault,
5 output error. A RunFault's kind picks 2 or 4 (EXIT_CODES); an undecodable
frame is a protocol fault. An InputError (a bad scenario, input file, series,
profile or ramp metric) and a missing input file are input errors; any other
OSError, such as a full disk while writing, and a failed log writer process
(OutputError) are output errors.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import click
import numpy as np

from .config import SYNTH_PROFILES, InputError, load_scenario, validate_scenario
from .frames import (
    FrameError,
    decode_frame,
    encode_frame,
    end_frame,
    fault_frame,
    sensor_frame,
    setpoint_frame,
    write_hexdump,
)
from .ingest import RESAMPLE_MODES, TIMESTAMP_FORMATS, IngestSpec, ingest_csv, write_series_csv
from .plant import INVARIANT, PROTOCOL, RunFault
from .ramp import ramp_report, write_rates_file, write_report_json
from .run import TRANSPORTS, OutputError, resolve_source, run_scenario
from .synth import synth_pv
from .util import AtomicWriter

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_INPUT = 3
EXIT_PROTOCOL = 4
EXIT_OUTPUT = 5
EXIT_CODES = {INVARIANT: EXIT_INVARIANT, PROTOCOL: EXIT_PROTOCOL}


@click.group()
def cli() -> None:
    """PV smoothing co-simulation toolkit."""


@cli.command("run")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True), help="Scenario JSON file.")
@click.option("--out", "out_dir", required=True, type=click.Path(), help="Artifact output directory.")
@click.option("--input", "input_csv", type=click.Path(exists=True), default=None, help="PV CSV overriding the scenario source.")
@click.option("--transport", type=click.Choice(TRANSPORTS), default="inproc", show_default=True)
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
def cmd_run(scenario_path: str, out_dir: str, input_csv: str | None, transport: str, seed: int | None) -> None:
    """Run a full smoothing experiment and write its artifact set."""
    cfg, source = load_scenario(scenario_path)
    if seed is not None:
        cfg = validate_scenario(replace(cfg, seed=seed))
    if input_csv is not None:
        source = {"kind": "csv", "path": input_csv, "sample_period_s": cfg.sample_period_s}
    series = resolve_source(source, cfg)
    artifacts = run_scenario(cfg, series, out_dir, transport=transport, source=source)

    raw, smooth = artifacts.raw_report, artifacts.smoothed_report
    post = artifacts.smoothed_report_postwarmup
    click.echo(f"config             {artifacts.config_digest[:12]}")
    click.echo(f"samples            {len(series)} @ {series.sample_period_s} s, rated {series.rated_power_w} W")
    click.echo(f"raw max |RR|       {raw.max_abs_rr:.3f} %/min ({raw.violation_count} over {raw.limit_pct_per_min} %/min)")
    click.echo(f"smoothed max |RR|  {smooth.max_abs_rr:.3f} %/min ({smooth.violation_count} violations)")
    click.echo(f"  excl. warm-up    {post.max_abs_rr:.3f} %/min ({post.violation_count} violations)")
    click.echo(f"soc                min {artifacts.soc.soc_min:.4f}  max {artifacts.soc.soc_max:.4f}  final {artifacts.soc.soc_final:.4f}  clamps {artifacts.soc.clamp_events}")
    click.echo(f"artifacts          {artifacts.out_dir}")


@cli.command("ingest")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path(), help="Normalized two-column CSV to write.")
@click.option("--time-column", default="t_s", show_default=True)
@click.option("--power-column", default="power_w", show_default=True)
@click.option("--timestamp-format", type=click.Choice(TIMESTAMP_FORMATS), default="epoch_s", show_default=True)
@click.option("--resample", type=click.Choice(RESAMPLE_MODES), default="none", show_default=True)
@click.option("--period", "sample_period_s", type=float, default=None, help="Target grid period for resampling [s].")
@click.option("--clamp-negative", is_flag=True, default=False)
@click.option("--rated", "rated_power_w", type=float, default=None, help="Nameplate rating; default is the series max.")
@click.option("--delimiter", default=",", show_default=True)
def cmd_ingest(input_path, out_path, time_column, power_column, timestamp_format, resample, sample_period_s, clamp_negative, rated_power_w, delimiter) -> None:
    """Normalize a PV data file onto a uniform grid."""
    spec = IngestSpec(
        path=input_path,
        time_column=time_column,
        power_column=power_column,
        timestamp_format=timestamp_format,
        resample=resample,
        sample_period_s=sample_period_s,
        clamp_negative=clamp_negative,
        rated_power_w=rated_power_w,
        delimiter=delimiter,
    )
    result = ingest_csv(spec)
    write_series_csv(result.series, out_path)
    s = result.series
    click.echo(f"rows read       {result.rows_read}")
    click.echo(f"samples         {len(s)} @ {s.sample_period_s} s (gaps filled: {result.gaps_filled})")
    click.echo(f"negative->0     {result.clamped_count}")
    click.echo(f"rated           {s.rated_power_w} W")
    click.echo(f"wrote           {out_path}")


@cli.command("synth")
@click.option("--profile", type=click.Choice(SYNTH_PROFILES), required=True)
@click.option("--duration", "duration_s", type=float, default=7200.0, show_default=True)
@click.option("--period", "sample_period_s", type=float, default=5.0, show_default=True)
@click.option("--rated", "rated_w", type=float, default=3000.0, show_default=True)
@click.option("--seed", type=int, default=None, help="Required for cloud_random.")
@click.option("--depth", type=float, default=0.8, show_default=True)
@click.option("--cloud-period", "cloud_period_s", type=float, default=600.0, show_default=True)
@click.option("--mean-dwell", "mean_dwell_s", type=float, default=240.0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def cmd_synth(profile, duration_s, sample_period_s, rated_w, seed, depth, cloud_period_s, mean_dwell_s, out_path) -> None:
    """Generate a synthetic PV profile as a two-column CSV."""
    series = synth_pv(
        profile,
        duration_s,
        sample_period_s,
        rated_w,
        seed=seed,
        depth=depth,
        cloud_period_s=cloud_period_s,
        mean_dwell_s=mean_dwell_s,
    )
    write_series_csv(series, out_path)
    click.echo(f"wrote {len(series)} samples to {out_path}")


@cli.command("metrics")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True), help="Two-column series CSV (t_s, power_w).")
@click.option("--rated", "rated_power_w", type=float, default=None, help="Nameplate rating; default is the series max.")
@click.option("--interval", "rr_interval_s", type=float, default=60.0, show_default=True)
@click.option("--limit", "limit_pct_per_min", type=float, default=5.0, show_default=True)
@click.option("--bin-width", type=float, default=1.0, show_default=True)
@click.option("--warmup", "warmup_s", type=float, default=0.0, show_default=True, help="Leading span to exclude from stats [s].")
@click.option("--sliding", is_flag=True, default=False, help="Evaluate at every sample instead of every interval.")
@click.option("--out", "report_path", required=True, type=click.Path(), help="Report JSON to write.")
@click.option("--rates-out", "rates_path", type=click.Path(), default=None, help="Optional two-column rates CSV.")
def cmd_metrics(input_path, rated_power_w, rr_interval_s, limit_pct_per_min, bin_width, warmup_s, sliding, report_path, rates_path) -> None:
    """Score an existing power trace against a ramp limit."""
    result = ingest_csv(IngestSpec(path=input_path, rated_power_w=rated_power_w))
    report = ramp_report(
        result.series,
        rr_interval_s,
        limit_pct_per_min,
        bin_width=bin_width,
        warmup_s=warmup_s,
        sliding=sliding,
    )
    write_report_json(report, report_path)
    if rates_path:
        with AtomicWriter(rates_path) as out:
            write_rates_file(
                report,
                out,
                sample_period_s=result.series.sample_period_s,
                start_time_s=result.series.start_time_s,
                sliding=sliding,
            )
    verdict = "PASS" if report.passed else "FAIL"
    click.echo(f"max |RR| {report.max_abs_rr:.3f} %/min; {report.violation_count} violations -> {verdict}")
    click.echo(f"wrote {report_path}")


@cli.command("protocol-check")
@click.option("--frames", "n_frames", type=int, default=10000, show_default=True, help="Random round-trip count.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--dump", "dump_path", type=click.Path(), default=None, help="Write reference frames as a hex dump.")
def cmd_protocol_check(n_frames: int, seed: int, dump_path: str | None) -> None:
    """Frame codec conformance: known vectors, round trips, bit-flip rejection."""
    import zlib

    checks: list[tuple[str, bool]] = []

    # Known CRC32 vector pins the polynomial/init/xor choice.
    checks.append(("crc32 check value 0xCBF43926", zlib.crc32(b"123456789") == 0xCBF43926))

    reference = [
        sensor_frame(1, 0, 0.0, 53.0),
        sensor_frame(2, 5000, 1234.5678, 52.91),
        setpoint_frame(1, 0, -12.25),
        end_frame(3, 10000),
    ]
    checks.append(("sensor frame is 40 bytes", len(encode_frame(reference[0])) == 40))
    checks.append(("end frame is 24 bytes", len(encode_frame(reference[3])) == 24))
    checks.append(
        ("reference round trips", all(decode_frame(encode_frame(f)) == f for f in reference))
    )

    rng = np.random.default_rng(seed)
    ok = 0
    for _ in range(n_frames):
        kind = int(rng.integers(0, 4))
        seq = int(rng.integers(0, 2**32))
        t = int(rng.integers(0, 2**48))
        vals = rng.uniform(-1e6, 1e6, size=[2, 1, 0, 0][kind])
        frame = [sensor_frame, setpoint_frame, end_frame, fault_frame][kind](seq, t, *vals)
        if decode_frame(encode_frame(frame)) == frame:
            ok += 1
    checks.append((f"random round trips ({ok}/{n_frames})", ok == n_frames))

    data = encode_frame(reference[1])
    rejected = 0
    for bit in range(len(data) * 8):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            decode_frame(bytes(flipped))
        except FrameError:
            rejected += 1
    checks.append(
        (f"single-bit flips rejected ({rejected}/{len(data) * 8})", rejected == len(data) * 8)
    )

    if dump_path:
        with AtomicWriter(dump_path) as out:
            write_hexdump([(f.type_name, encode_frame(f).hex()) for f in reference], out)
        click.echo(f"wrote {dump_path}")

    failed = [name for name, passed in checks if not passed]
    for name, passed in checks:
        click.echo(f"{'PASS' if passed else 'FAIL'}  {name}")
    if failed:
        raise RunFault(PROTOCOL, f"{len(failed)} protocol check(s) failed")


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except (InputError, FileNotFoundError) as exc:
        click.echo(f"input error: {exc}", err=True)
        return EXIT_INPUT
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_INPUT
    except (OSError, OutputError) as exc:
        click.echo(f"output error: {exc}", err=True)
        return EXIT_OUTPUT
    except RunFault as exc:
        click.echo(f"{exc.kind}: {exc}", err=True)
        return EXIT_CODES[exc.kind]
    except FrameError as exc:
        click.echo(f"{PROTOCOL}: {exc}", err=True)
        return EXIT_PROTOCOL
    except click.exceptions.Exit as exc:  # --help and friends
        return int(exc.exit_code)
    except click.Abort:
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
