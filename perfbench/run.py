"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload multiday_inproc --seed 1 --seconds 45 --trace 0

One operation is what `pvsmooth run` does: load and validate the scenario
file, make the input series (synth or CSV ingest), then `run_scenario` to a
finished artifact set in a fresh directory. Every operation's artifacts are
then checked (see checks.py) and deleted. Operations repeat on the same
inputs until --seconds have passed.

With --trace 0 the end-to-end metrics are printed; with --trace 1 traced and
untraced operations alternate and the per-layer metrics are printed, with the
spans of the last traced operation written under perfbench/out/. The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads
from checks import Expect, check_run

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
# Set-up alone is repeated this long at the start of a timed run, so that
# setup_s is a median of many samples even where it takes milliseconds.
SETUP_PHASE_S = 1.0

END_TO_END_UNITS = {"us_per_step": "us", "setup_s": "s", "peak_rss_mib": "MiB", "artifact_bytes_per_step": "B"}
ARTIFACT_KEYS = {
    "plant_trace.csv": "plant_trace",
    "controller_log.csv": "controller_log",
    "frames.hex": "frames_hex",
    "metrics.json": "metrics_json",
    "raw_rates.csv": "rates",
    "smoothed_rates.csv": "rates",
    "histogram.csv": "histogram",
}


@dataclass
class OpResult:
    steps: int
    setup_s: float
    run_s: float
    file_bytes: dict[str, int]
    clamp_events: int
    peak_rss_mib: float  # process peak so far, taken when run_scenario returns
    problems: list[str]

    @property
    def us_per_step(self) -> float:
        return 1e6 * self.run_s / self.steps


def _call(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.span(name, fn, *args, **kwargs)


def set_up(wl, tracer=None):
    """Scenario file to a validated config and a ready input series."""
    from pvsmooth.config import load_scenario
    from pvsmooth.run import resolve_source

    cfg, source = _call(tracer, "config.load_scenario", load_scenario, wl.scenario_path)
    series = _call(tracer, "run.resolve_source", resolve_source, source, cfg)
    return cfg, source, series


def setup_times(wl, seconds: float) -> list[float]:
    """Set up repeatedly for `seconds`, at least three times."""
    times: list[float] = []
    end = time.perf_counter() + seconds
    while len(times) < 3 or time.perf_counter() < end:
        t0 = time.perf_counter()
        set_up(wl)
        times.append(time.perf_counter() - t0)
    return times


def run_op(wl, out_dir: Path, tracer=None) -> OpResult:
    """One scenario run, timed, then checked; the artifacts are removed."""
    from pvsmooth.run import run_scenario

    gc.collect()
    t0 = time.perf_counter()
    cfg, source, series = set_up(wl, tracer)
    t1 = time.perf_counter()
    art = _call(tracer, "run.run_scenario", run_scenario, cfg, series, out_dir, source=source)
    t2 = time.perf_counter()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    clamp_events = art.soc.clamp_events
    del art
    file_bytes: dict[str, int] = {}
    for path in out_dir.iterdir():
        key = ARTIFACT_KEYS.get(path.name, path.name)
        file_bytes[key] = file_bytes.get(key, 0) + path.stat().st_size
    expect = Expect(
        samples=series.samples,
        rated_w=series.rated_power_w,
        period_s=cfg.sample_period_s,
        n_window=cfg.n_window,
        rr_interval_s=cfg.rr_interval_s,
        battery=cfg.battery,
        supply_limit_a=cfg.supply_limit_a,
        free_running=cfg.transport.mode == "free_running",
        csv_rows=wl.csv_rows,
    )
    problems = check_run(out_dir, expect)
    shutil.rmtree(out_dir)
    return OpResult(len(series), t1 - t0, t2 - t1, file_bytes, clamp_events, peak_rss_mib, problems)


def _guarded(op, *args):
    """Run an operation; a crash counts as a failed operation (None)."""
    try:
        return op(*args)
    except Exception:
        traceback.print_exc()
        return None


def timed_runs(wl, workdir: Path, seconds: float) -> tuple[list, dict]:
    deadline = time.perf_counter() + seconds
    setups = setup_times(wl, SETUP_PHASE_S)
    ops = []
    while True:
        r = _guarded(run_op, wl, workdir / f"op{len(ops)}")
        if r is not None:
            print(f"op {len(ops)}: setup {r.setup_s:.4f} s, {r.us_per_step:.2f} us/step", file=sys.stderr)
        ops.append(r)
        if time.perf_counter() >= deadline:
            break
    good = [r for r in ops if r is not None and not r.problems]
    metrics = {}
    if good:
        metrics = {
            "us_per_step": statistics.median(r.us_per_step for r in good),
            "setup_s": statistics.median(setups + [r.setup_s for r in good]),
            # What one `pvsmooth run` process reaches: later operations in the
            # same process only add allocator fragmentation.
            "peak_rss_mib": good[0].peak_rss_mib,
            "artifact_bytes_per_step": statistics.median(sum(r.file_bytes.values()) / r.steps for r in good),
        }
    return ops, metrics


def traced_runs(wl, workdir: Path, seconds: float, spans_path: Path) -> tuple[list, dict]:
    from tracing import Tracer, layer_metrics, retained_bytes_by_module

    ops, plain, traced, layers = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        for use_tracer in (False, True):
            tracer = Tracer() if use_tracer else None
            if tracer is not None:
                tracer.install()
            try:
                r = _guarded(run_op, wl, workdir / f"op{len(ops)}", tracer)
            finally:
                if tracer is not None:
                    tracer.remove()
            ops.append(r)
            if r is None or r.problems:
                continue
            if tracer is None:
                plain.append(r.us_per_step)
            else:
                traced.append(r.us_per_step)
                layers.append(layer_metrics(tracer, r.steps, r.clamp_events, r.file_bytes))
                last_tracer = tracer
        if time.perf_counter() >= deadline:
            break
    if not layers:
        return ops, {}
    last_tracer.write_spans(spans_path)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_us_per_step"] = statistics.median(traced) - statistics.median(plain)

    r, retained = retained_bytes_by_module(lambda: _guarded(run_op, wl, workdir / "retained"), SRC)
    ops.append(r)
    if r is not None:
        for module in ("controller", "plant", "bus"):
            metrics[f"{module}.retained_bytes_per_step"] = retained.get(module, 0) / r.steps
    return ops, metrics


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pvsmooth" / "__init__.py").is_file():
        print(f"error: pvsmooth sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=OUT))
    try:
        wl = workloads.prepare(args.workload, args.seed, workdir)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            ops, metrics = traced_runs(wl, workdir, args.seconds, spans_path)
            units = per_layer_units()
        else:
            ops, metrics = timed_runs(wl, workdir, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = 0
    for i, r in enumerate(ops):
        if r is None or r.problems:
            failed += 1
            for problem in (r.problems if r is not None else ["crashed"])[:10]:
                print(f"op {i}: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.4f} {units.get(name, '')}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
