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
workload's transport (4,000 ms latency, 1,500 ms jitter). The pvsmooth that
PYTHONPATH names is the one measured.
"""

from __future__ import annotations

import argparse
import sys
import time
from math import inf

from pvsmooth import bus, frames, plant
from pvsmooth.config import ScenarioConfig, TransportConfig, validate_scenario
from pvsmooth.controller import ControllerDriver, SmoothingController
from pvsmooth.synth import synth_pv


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
