"""Spans around calls into pvsmooth's public functions, and what they add up to.

Each wrap goes on the attribute the caller looks up: `bus` does
`from .frames import encode_frame`, so the codec is wrapped at
`pvsmooth.bus.encode_frame`, and methods are wrapped on their class. A span
records its id, parent span, name, start and end; self time is the
span minus its children. Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import itertools
import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pvsmooth.bus as bus
import pvsmooth.controller as controller
import pvsmooth.plant as plant
import pvsmooth.run as run

ENGINES = ("bus.run_lockstep_inproc", "bus.run_free_running")

# (owner, attribute, span name); the owner is where the caller looks the name up.
WRAPS = [
    (bus, "encode_frame", "frames.encode_frame"),
    (bus, "decode_frame", "frames.decode_frame"),
    (controller.ControllerDriver, "on_frame", "controller.on_frame"),
    (controller.SmoothingController, "step", "controller.step"),
    (plant.PlantDriver, "apply_interval", "plant.apply_interval"),
    (plant, "battery_step", "plant.battery_step"),
    (run, "run_session", "bus.run_session"),
    (bus, "run_lockstep_inproc", "bus.run_lockstep_inproc"),
    (bus, "run_free_running", "bus.run_free_running"),
    (bus.PlantBoundary, "outbound", "bus.outbound"),
    (bus.PlantBoundary, "inbound", "bus.inbound"),
    (bus.DelayModel, "next_delay_ms", "bus.next_delay_ms"),
    (run, "check_run_invariants", "run.check_run_invariants"),
    (run, "write_plant_trace", "run.write_plant_trace"),
    (run, "write_controller_log", "run.write_controller_log"),
    (run, "write_hexdump", "run.write_hexdump"),
    (run, "write_rates_file", "run.write_rates_file"),
    (run, "_write_histogram_csv", "run.write_histogram"),
    (run, "report_to_dict", "run.report_to_dict"),
    (run, "atomic_write_text", "run.atomic_write_text"),
    (run, "ramp_report", "ramp.ramp_report"),
    (run, "synth_pv", "synth.synth_pv"),
    (run, "ingest_csv", "ingest.ingest_csv"),
]

# What a result tells about the work done, recorded at the same boundary.
RESULT_COUNTS = {
    "frames.encode_frame": lambda data: {"wire_bytes": len(data)},
    "ramp.ramp_report": lambda rep: {"ramp_points": int(rep.rr_pct_per_min.size)},
    "ingest.ingest_csv": lambda res: {"rows_read": res.rows_read, "gaps_filled": res.gaps_filled},
}


class Tracer:
    """Records spans while installed; `remove` restores every wrapped attribute."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._stack: list[int] = []  # open spans; every workload runs on one thread
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; usable for calls the benchmark makes itself."""
        stack = self._stack
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1))
        counter = RESULT_COUNTS.get(name)
        if counter is not None:
            for key, value in counter(result).items():
                self.counts[key] += value
        return result

    def install(self) -> None:
        for owner, attr, name in WRAPS:
            original = vars(owner)[attr]

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                return self.span(_name, _fn, *args, **kwargs)

            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
        # run_scenario serialises metrics.json with json.dumps; give run.py a
        # json namespace of its own so only that call is traced.
        shim = SimpleNamespace(dumps=lambda *a, **kw: self.span("run.json_dumps", json.dumps, *a, **kw))
        self._undo.append((run, "json", run.json))
        run.json = shim

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write_spans(self, path: Path) -> None:
        lines = ["id,parent,name,start_ns,end_ns"]
        lines += [f"{sid},{parent},{name},{t0},{t1}" for sid, parent, name, t0, t1 in self.spans]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def layer_metrics(tracer: Tracer, steps: int, clamp_events: int, file_bytes: dict) -> dict:
    """Per-layer figures of one traced operation."""
    spans = tracer.spans
    child_ns: dict[int, int] = defaultdict(int)
    for _sid, parent, _name, t0, t1 in spans:
        if parent:
            child_ns[parent] += t1 - t0
    total: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    metrics_write_ns = 0
    scenario_ids = {sid for sid, _p, name, _a, _b in spans if name == "run.run_scenario"}
    for sid, parent, name, t0, t1 in spans:
        total[name] += t1 - t0
        self_ns[name] += t1 - t0 - child_ns[sid]
        calls[name] += 1
        if name == "run.atomic_write_text" and parent in scenario_ids:
            metrics_write_ns += t1 - t0

    def us_per_call(name: str, ns: dict) -> float:
        return ns[name] / calls[name] / 1e3 if calls[name] else 0.0

    def us_per_step(ns: float) -> float:
        return ns / steps / 1e3

    c = tracer.counts
    rows = c["rows_read"]
    return {
        "frames.encode_calls": calls["frames.encode_frame"],
        "frames.decode_calls": calls["frames.decode_frame"],
        "frames.encode_us_per_call": us_per_call("frames.encode_frame", total),
        "frames.decode_us_per_call": us_per_call("frames.decode_frame", total),
        "frames.wire_bytes_per_step": c["wire_bytes"] / steps,
        "controller.on_frame_us_per_call": us_per_call("controller.on_frame", self_ns),
        "controller.step_us_per_call": us_per_call("controller.step", total),
        "plant.apply_interval_us_per_call": us_per_call("plant.apply_interval", self_ns),
        "plant.battery_step_us_per_call": us_per_call("plant.battery_step", total),
        "plant.clamp_events": clamp_events,
        "bus.session_us_per_step": us_per_step(total["bus.run_session"]),
        "bus.loop_self_us_per_step": us_per_step(sum(self_ns[e] for e in ENGINES)),
        "bus.outbound_self_us_per_call": us_per_call("bus.outbound", self_ns),
        "bus.inbound_self_us_per_call": us_per_call("bus.inbound", self_ns),
        "bus.delay_draws": calls["bus.next_delay_ms"],
        "bus.delay_draw_us_per_call": us_per_call("bus.next_delay_ms", total),
        "run.check_invariants_us_per_step": us_per_step(total["run.check_run_invariants"]),
        "run.write_plant_trace_us_per_step": us_per_step(total["run.write_plant_trace"]),
        "run.write_controller_log_us_per_step": us_per_step(total["run.write_controller_log"]),
        "run.write_hexdump_us_per_step": us_per_step(total["run.write_hexdump"]),
        "run.write_rates_us_per_step": us_per_step(total["run.write_rates_file"]),
        "run.write_histogram_us_per_step": us_per_step(total["run.write_histogram"]),
        "run.metrics_json_us_per_step": us_per_step(
            total["run.report_to_dict"] + total["run.json_dumps"] + metrics_write_ns
        ),
        **{f"run.bytes_per_step.{key}": size / steps for key, size in file_bytes.items()},
        "ramp.report_us": total["ramp.ramp_report"] / 1e3,
        "ramp.points": c["ramp_points"],
        "ingest.rows_read": rows,
        "ingest.gaps_filled": c["gaps_filled"],
        "ingest.us_per_row": total["ingest.ingest_csv"] / rows / 1e3 if rows else 0.0,
        "synth.us": total["synth.synth_pv"] / 1e3,
        "config.load_us": total["config.load_scenario"] / 1e3,
    }


def retained_bytes_by_module(run_op, src_dir: Path) -> tuple[object, dict[str, int]]:
    """Run run_op under tracemalloc; return its result and the bytes still
    allocated when the session ends, by the pvsmooth file that allocated them.

    One frame per allocation is enough: the per-step row objects are allocated
    in the frame that calls their class, and tracing more frames doubles the
    cost without moving a byte between modules.
    """
    snapshot = None
    original = run.run_session

    def capture(*args, **kwargs):
        nonlocal snapshot
        result = original(*args, **kwargs)
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()  # the writers and checks that follow run untraced
        return result

    run.run_session = capture
    tracemalloc.start(1)
    try:
        op_result = run_op()
    finally:
        tracemalloc.stop()
        run.run_session = original
    package = src_dir / "pvsmooth"
    by_module = {}
    if snapshot is None:  # the operation failed before its session ended
        return op_result, by_module
    for stat in snapshot.statistics("filename"):
        path = Path(stat.traceback[0].filename)
        if path.parent == package:
            by_module[path.stem] = stat.size
    return op_result, by_module
