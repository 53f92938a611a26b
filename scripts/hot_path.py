#!/usr/bin/env python3
"""What each per-step function of a session costs per call, and what a
sink-less session costs per step, without the tracer.

    PYTHONPATH=src python3 scripts/hot_path.py [--days 2] [--repeat 5]

perfbench's tracer times some of these functions too, but a span costs more
than several of the calls it wraps, so its per-layer figures hide them.
Here a sink-less in-process lockstep session of the benchmark's scenario
(synthetic cloud_random PV, seed 1, 5 s samples, --days long) runs first,
and its frame log and plant trace give the inputs of every call: the sensor
and setpoint bytes and what they carry, the requested currents. Each
function is then called once per step's worth of inputs, in order, on a
fresh object (a controller coroutine, a plant) per repeat, and the best
repeat is reported in ns per call, less the bare loop around the calls:
the four per-type codec functions, one resume of the controller's
coroutine (which decodes, steps and encodes), SmoothingController.step,
PlantDriver.hold, one resume of the plant's coroutine (apply_interval,
which integrates an interval and makes the next reading) and battery_step.
The last two lines are whole sink-less sessions, the best of --repeat runs
each, in µs per simulated step: bus.run_lockstep_inproc, and
bus.run_free_running on the same series with the csv_free_running
workload's transport (4,000 ms latency, 1,500 ms jitter).

Then the log writer, on the session of each benchmark workload at seed 1:
multiday_inproc (lockstep) and csv_free_running (free-running, on the
ingested CSV, whose night rows hold the running sums' tiny residues), their
inputs made by perfbench's `workloads.prepare` in a temporary directory.
Each session runs once with a run's sinks (run.RunLogs), its blocks
recorded as run.LogWriter would send them, and the recorded stream is
replayed through run._format_blocks in this process, into temporary files:
each table's blocks alone (plant trace, controller log, frames) and the
whole stream. Each is reported as the process CPU (time.process_time) of
the best of --repeat replays, in µs per simulated step. A run's writer
process does this work; perfbench's traced figures read 0 for it, since its
spans stay in the writer process. The pvsmooth that PYTHONPATH names is the
one measured.
"""

from __future__ import annotations

import argparse
import io
import sys
import tempfile
import time
from math import inf
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402  (perfbench's input files, unchanged)

from pvsmooth import bus, frames, plant  # noqa: E402
from pvsmooth import run as pvrun  # noqa: E402
from pvsmooth.config import ScenarioConfig, TransportConfig, load_scenario, validate_scenario  # noqa: E402
from pvsmooth.controller import ControllerDriver, SmoothingController  # noqa: E402
from pvsmooth.synth import synth_pv  # noqa: E402
from pvsmooth.util import AtomicWriter  # noqa: E402


def best_ns(make_call, inputs: list[tuple], repeat: int) -> float:
    """Best time per call of make_call()(*args) over inputs, in ns, less the
    bare loop; make_call is called afresh for each repeat."""
    best = loop = inf
    for _ in range(repeat):
        call = make_call()
        t0 = time.perf_counter_ns()
        for args in inputs:
            call(*args)
        t1 = time.perf_counter_ns()
        for args in inputs:
            pass
        t2 = time.perf_counter_ns()
        best, loop = min(best, t1 - t0), min(loop, t2 - t1)
    return (best - loop) / len(inputs)


class StreamRecorder:
    """Stands in for run.LogWriter: keeps each block as send puts it on the
    writer's stream, (table id, header and data)."""

    def __init__(self):
        self.blocks: list[tuple[int, bytes]] = []

    def send(self, table_id: int, table, wire: bytes | None = None) -> None:
        data = bytes(table.rows) + (b"" if wire is None else bytes(wire))
        self.blocks.append((table_id, pvrun._HEADER.pack(table_id, len(table), table.start, len(data)) + data))


def streamed_blocks(series, cfg) -> list[tuple[int, bytes]]:
    """The blocks an in-process session streams to a run's log writer."""
    recorder = StreamRecorder()
    logs = pvrun.RunLogs(cfg, recorder)
    token = bus.SESSION_SINKS.set(logs.sinks)
    try:
        session = bus.run_session(series, cfg)
    finally:
        bus.SESSION_SINKS.reset(token)
    logs.finish(session)
    return recorder.blocks


def replay_cpu_s(stream: bytes, repeat: int) -> float:
    """Best process CPU of run._format_blocks over stream, in seconds, the
    files written into a temporary directory."""
    best = inf
    with tempfile.TemporaryDirectory(prefix="hot_path-") as tmp:
        for _ in range(repeat):
            files = [AtomicWriter(Path(tmp) / name) for name in pvrun.STREAMED_FILES]
            t0 = time.process_time()
            pvrun._format_blocks(io.BufferedReader(io.BytesIO(stream)), files)
            best = min(best, time.process_time() - t0)
            for out in files:
                out.tmp.unlink()
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--days", type=float, default=2.0)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)

    cfg = validate_scenario(ScenarioConfig(seed=1))
    series = synth_pv("cloud_random", args.days * 86400.0, cfg.sample_period_s, 3000.0, seed=1)
    steps = len(series)
    session = bus.run_lockstep_inproc(series, cfg)
    log, wire = session.log.frames, bytes(session.log.wire)
    ends, directions = log.wire_end.tolist(), log.direction.tolist()
    sent = [wire[a:b] for a, b in zip([0, *ends[:-1]], ends)]
    sensor_bytes = [(data,) for data, d in zip(sent, directions) if d == bus.S2C][:-1]  # END last
    setpoint_bytes = [(data,) for data, d in zip(sent, directions) if d == bus.C2S]
    sensors = [frames.decode_sensor(data) for (data,) in sensor_bytes]
    setpoints = [frames.decode_setpoint(data) for (data,) in setpoint_bytes]
    requests = [(i,) for i in session.plant.trace.i_request_a.tolist()]
    battery = [(soc, cfg.battery, i, cfg.sample_period_s)
               for soc, (i,) in zip([cfg.battery.soc_init, *session.plant.trace.soc.tolist()[:-1]], requests)]

    def controller_resume():
        replies = ControllerDriver(cfg.n_window).replies()
        next(replies)
        return replies.send

    # (what is timed, calls per step, fresh callable, inputs)
    rows = [
        ("frames.encode_sensor", 1, lambda: frames.encode_sensor, sensors),
        ("frames.encode_setpoint", 1, lambda: frames.encode_setpoint, setpoints),
        ("frames.decode_sensor", 1, lambda: frames.decode_sensor, sensor_bytes),
        ("frames.decode_setpoint", 1, lambda: frames.decode_setpoint, setpoint_bytes),
        ("controller resume", 1, controller_resume, sensor_bytes),
        ("controller.step", 1, lambda: SmoothingController(cfg.n_window).step, [s[2:] for s in sensors]),
        ("plant.hold", 1, lambda: plant.PlantDriver(series, cfg).hold, [(s,) for s in setpoints]),
        ("plant resume (apply_interval)", 1, lambda: plant.PlantDriver(series, cfg).apply_interval, requests),
        ("plant.battery_step", 1, lambda: plant.battery_step, battery),
    ]
    print(f"{steps} steps, best of {args.repeat}; ns per call (calls per step)")
    for name, per_step, make_call, inputs in rows:
        print(f"{name:30s} {best_ns(make_call, inputs, args.repeat):8.0f} ({per_step})")

    free = TransportConfig(mode="free_running", latency_ms=4000.0, jitter_ms=1500.0)
    sessions = [
        ("sink-less in-process session", bus.run_lockstep_inproc, cfg),
        ("sink-less free-running session", bus.run_free_running, validate_scenario(ScenarioConfig(seed=1, transport=free))),
    ]
    for name, engine, engine_cfg in sessions:
        best = inf
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            engine(series, engine_cfg)
            best = min(best, time.perf_counter() - t0)
        print(f"{name}: {1e6 * best / steps:.2f} us/step")

    end = pvrun._HEADER.pack(pvrun._END, 0, 0, 0)
    for workload in ("multiday_inproc", "csv_free_running"):
        with tempfile.TemporaryDirectory(prefix="hot_path-") as tmp:
            wl = workloads.prepare(workload, 1, Path(tmp))
            wl_cfg, source = load_scenario(wl.scenario_path)
            wl_series = pvrun.resolve_source(source, wl_cfg)
        blocks = streamed_blocks(wl_series, wl_cfg)
        tables = {"plant": pvrun.PLANT, "controller": pvrun.CONTROLLER, "frames": pvrun.FRAMES}
        streams = {table: b"".join(block for t, block in blocks if t == table_id) + end
                   for table, table_id in tables.items()}
        streams["total"] = b"".join(block for _, block in blocks) + end
        cpu = {table: 1e6 * replay_cpu_s(stream, args.repeat) / len(wl_series) for table, stream in streams.items()}
        print(f"writer replay of {workload} ({wl_cfg.transport.mode}), process CPU us/step: "
              + ", ".join(f"{table} {us:.2f}" for table, us in cpu.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
