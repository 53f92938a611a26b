"""What the benchmark's own code takes from pvsmooth by name.

The tracer wraps pvsmooth attributes by name (perfbench/tracing.py), and
perfbench/test_checks.py replaces run.run_session with a stub. A change in
the package that breaks either would otherwise surface only when the
benchmark or its tests run; the last test here runs the benchmark's own
tests.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_attribute_lives_on_its_owner():
    tracing = load_tracing()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in tracing.WRAPS
        if attr not in vars(owner)
    ]
    assert missing == []
    # the loop's self time is read off the engine spans
    assert set(tracing.ENGINES) <= {name for _, _, name in tracing.WRAPS}


def test_every_per_step_wrap_records_one_span_per_call():
    # A wrapped name that the hot path binds before the tracer is installed
    # (a default argument, a module-level alias) records no spans, and the
    # traced benchmark could no longer attribute the step's time. The step
    # runs in one coroutine per peer: per step the controller calls
    # SmoothingController.step and the session loop calls PlantDriver.apply_interval,
    # which calls battery_step; delays are drawn once a frame only with
    # jitter. The codec's whole-frame functions and the boundary's outbound
    # and inbound take only the frames the per-step path does not: here END.
    tracing = load_tracing()
    from pvsmooth import bus
    from pvsmooth.config import ScenarioConfig, TransportConfig, validate_scenario
    from pvsmooth.synth import synth_pv

    wrapped = {name for _, _, name in tracing.WRAPS}
    series = synth_pv("cloud_random", 60 * 5.0, 5.0, 3000.0, seed=3)
    free = TransportConfig(mode="free_running", latency_ms=4000.0, jitter_ms=1500.0)
    for engine, transport in (("run_lockstep_inproc", TransportConfig()), ("run_free_running", free)):
        cfg = validate_scenario(ScenarioConfig(seed=3, transport=transport))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = getattr(bus, engine)(series, cfg)
        finally:
            tracer.remove()
        direction = result.log.frames.direction.tolist()
        s2c, c2s, steps = direction.count(bus.S2C), direction.count(bus.C2S), len(series)
        assert (s2c, c2s) == (steps + 1, steps)  # n sensor frames and END; n setpoints
        expected = {
            "frames.encode_frame": 1,  # END
            "frames.decode_frame": 0,
            "bus.outbound": 1,  # END
            "bus.inbound": 0,
            "bus.next_delay_ms": (s2c + c2s) * (transport.jitter_ms > 0),
            "controller.on_frame": 1,  # END
            "controller.step": steps,
            "plant.apply_interval": steps,
            "plant.battery_step": steps,
            f"bus.{engine}": 1,
        }
        assert set(expected) <= wrapped
        calls = {name: 0 for name in expected}
        for _sid, _parent, name, _t0, _t1 in tracer.spans:
            if name in calls:
                calls[name] += 1
        assert calls == expected, engine


def test_run_scenario_takes_a_three_argument_session_stub(tmp_path, monkeypatch):
    # perfbench/test_checks.py swaps run.run_session for a lambda of (series,
    # cfg, transport) that starts an engine itself; that session streams
    # through the run's sinks too (bus.SESSION_SINKS), and the run must still
    # write every artifact, with the bytes of the run's own session
    from pvsmooth import bus
    from pvsmooth import run as pvrun
    from pvsmooth.config import ScenarioConfig
    from pvsmooth.synth import synth_pv
    from pvsmooth.util import BLOCK_ROWS

    cfg = ScenarioConfig(seed=3)
    series = synth_pv("cloud_random", (BLOCK_ROWS + 10) * 5.0, 5.0, 3000.0, seed=3)
    streamed = pvrun.run_scenario(cfg, series, tmp_path / "streamed")
    monkeypatch.setattr(
        pvrun, "run_session", lambda series, cfg, transport: bus.run_lockstep_inproc(series, cfg)
    )
    stubbed = pvrun.run_scenario(cfg, series, tmp_path / "stubbed")
    assert sorted(p.name for p in stubbed.out_dir.iterdir()) == sorted(pvrun.ARTIFACT_FILES)
    for name in pvrun.ARTIFACT_FILES:
        assert (stubbed.out_dir / name).read_bytes() == (streamed.out_dir / name).read_bytes(), name


def test_the_benchmarks_own_tests_pass():
    # tests/ and perfbench/ each have a conftest module, so one pytest run
    # cannot collect both; perfbench's suite runs in a process of its own
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
