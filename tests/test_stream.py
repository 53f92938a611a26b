"""A run streams its logs to disk block by block.

The plant trace, the controller log and the frame log reach their files one
block of BLOCK_ROWS rows at a time while the session runs, formatted by a
writer process (run.LogWriter). These tests pin that the streamed files
equal the whole-table output of a session that kept every row, that a
breach found after a block is on disk or a writer that dies leaves nothing
behind and no child process, and that run_scenario's memory no longer grows
with the log.
"""

import io
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from conftest import report_bytes
from pvsmooth import bus, controller
from pvsmooth import run as pvrun
from pvsmooth.cli import main
from pvsmooth.config import ConfigError, ScenarioConfig, TransportConfig, validate_scenario
from pvsmooth.plant import INVARIANT, PLANT_TRACE_COLUMNS, RunFault
from pvsmooth.series import PowerSeries
from pvsmooth.run import (
    STREAMED_FILES,
    run_scenario,
    write_controller_log,
    write_hexdump,
    write_plant_trace,
)
from pvsmooth.synth import synth_pv
from pvsmooth.util import BLOCK_ROWS, AtomicWriter, Records

B = BLOCK_ROWS

# engine: (the sink-less session whose tables make the whole-table files,
# run_scenario's transport, the scenario's transport section). A free-running
# socket run is held to the in-process session's tables, which the socket
# session equals bit for bit (test_bus.py), at half the socket time
FREE_RUNNING = TransportConfig(mode="free_running", latency_ms=4000.0, jitter_ms=1500.0)
ENGINES = {
    "inproc": (bus.run_lockstep_inproc, "inproc", TransportConfig()),
    "socket": (bus.run_lockstep_socket, "socket", TransportConfig()),
    "free_running": (bus.run_free_running, "inproc", FREE_RUNNING),
    "free_running_socket": (bus.run_free_running, "socket", FREE_RUNNING),
}


def flip_last_byte_of(index):
    """corrupt_s2c hook: the sensor frame `index` fails its CRC (a lost sample)."""
    return lambda i, data: data[:-1] + bytes([data[-1] ^ 1]) if i == index else data


def corrupt_every_session(monkeypatch, corrupt_s2c):
    """Make every PlantBoundary corrupt its outbound frames with corrupt_s2c,
    so a run_scenario session loses a sample."""
    real_init = bus.PlantBoundary.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **{**kwargs, "corrupt_s2c": corrupt_s2c})

    monkeypatch.setattr(bus.PlantBoundary, "__init__", init)


def whole_table_files(session, out_dir):
    """The three streamed files, written in one piece each from a session
    whose tables kept every row."""
    out_dir.mkdir()
    with AtomicWriter(out_dir / "plant_trace.csv") as out:
        write_plant_trace(session.plant.trace, out)
    with AtomicWriter(out_dir / "controller_log.csv") as out:
        write_controller_log(session.controller.log, out)
    with AtomicWriter(out_dir / "frames.hex") as out:
        write_hexdump(session.log.tagged_hex(), out)


def assert_streamed_equals_whole(engine, cfg, series, lost, tmp_path, monkeypatch):
    run_engine, transport, _ = ENGINES[engine]
    n = len(series)
    corrupt = None if lost is None else flip_last_byte_of(lost - 1)

    whole = run_engine(series, cfg, corrupt_s2c=corrupt)
    assert len(whole.plant.trace) == n  # a sink-less session keeps every row
    if lost is not None:
        assert whole.controller.log.k[lost - 1] == 0
    whole_table_files(whole, tmp_path / "whole")

    if corrupt is not None:
        corrupt_every_session(monkeypatch, corrupt)
    art = run_scenario(cfg, series, tmp_path / "streamed", transport=transport)
    for name in STREAMED_FILES:
        streamed = (tmp_path / "streamed" / name).read_bytes()
        assert streamed == (tmp_path / "whole" / name).read_bytes(), name
    metrics = json.loads((tmp_path / "streamed" / "metrics.json").read_text())
    assert metrics["controller"]["error_count"] == (lost is not None)
    p_hat = pvrun.live_p_hat(whole.controller.log)
    assert p_hat.size == n - (lost is not None)
    streamed_reports = (art.smoothed_report, art.smoothed_report_postwarmup)
    assert list(map(report_bytes, streamed_reports)) == list(map(report_bytes, ref.smoothed_reports(p_hat, series, cfg)))


def boundary_cases(block):
    """Run lengths around a `block`-row boundary: one row short of it, on it,
    one row past it, and several blocks with a partial tail, the last also
    with a sample lost after the first block."""
    return [(n, None) for n in (block - 1, block, block + 1, 3 * block + 7)] + [(3 * block + 7, block + 5)]


# the same lengths around 4,096 rows, a whole number of blocks, so each case
# sits at the same place in a block for any BLOCK_ROWS that divides 4,096
assert 4096 % B == 0
CASES = boundary_cases(B) + [c for c in boundary_cases(4096) if c not in boundary_cases(B)]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(("n", "lost"), CASES, ids=lambda v: str(v))
def test_streamed_files_equal_the_whole_table_output(engine, n, lost, tmp_path, monkeypatch):
    cfg = validate_scenario(ScenarioConfig(seed=n, transport=ENGINES[engine][2]))
    series = synth_pv("cloud_random", n * cfg.sample_period_s, cfg.sample_period_s, 3000.0, seed=n)
    assert_streamed_equals_whole(engine, cfg, series, lost, tmp_path, monkeypatch)


@pytest.mark.parametrize("engine", ENGINES)
def test_streamed_files_keep_signed_zero_subnormal_and_rated_samples(engine, tmp_path, monkeypatch):
    # the writer process rebuilds each block from its raw bytes, so every
    # float must arrive bitwise: -0.0 and a subnormal are written as such
    n = 3 * B + 7
    cfg = validate_scenario(ScenarioConfig(seed=4, transport=ENGINES[engine][2]))
    samples = synth_pv("cloud_random", n * 5.0, 5.0, 3000.0, seed=4).samples.copy()
    samples[[0, B - 1, B, 2 * B + 3, n - 1]] = [-0.0, 5e-324, 3000.0, -0.0, 5e-324]
    series = PowerSeries(samples, 5.0, 3000.0)
    assert_streamed_equals_whole(engine, cfg, series, None, tmp_path, monkeypatch)
    trace = (tmp_path / "streamed" / "plant_trace.csv").read_text().splitlines()
    assert [trace[1 + i].split(",")[1] for i in (0, B - 1, B, n - 1)] == ["-0.0", "5e-324", "3000.0", "5e-324"]


@pytest.mark.parametrize(
    ("run_engine", "transport"),
    [(bus.run_lockstep_inproc, TransportConfig()), (bus.run_free_running, FREE_RUNNING),
     (bus.run_lockstep_socket, TransportConfig())],
    ids=["inproc", "free_running", "socket"],
)
def test_every_engine_streams_through_the_session_sinks(run_engine, transport):
    # an engine started where SESSION_SINKS is set, as inside run_scenario,
    # hands its full blocks to those sinks, whoever starts it; the blocks and
    # the rows left in the tables make up the sink-less session's tables
    n = 2 * B + 10
    cfg = validate_scenario(ScenarioConfig(seed=6, transport=transport))
    series = synth_pv("cloud_random", n * 5.0, 5.0, 3000.0, seed=6)
    whole = run_engine(series, cfg)
    blocks = {"plant": [], "controller": [], "frames": []}
    sinks = bus.Sinks(
        plant=lambda trace: blocks["plant"].append(bytes(trace.rows)),
        controller=lambda log: blocks["controller"].append(bytes(log.rows)),
        frames=lambda log: blocks["frames"].append((bytes(log.frames.rows), bytes(log.wire))),
    )
    token = bus.SESSION_SINKS.set(sinks)
    try:
        streamed = run_engine(series, cfg)
    finally:
        bus.SESSION_SINKS.reset(token)

    tables = {
        "plant": (streamed.plant.trace, whole.plant.trace),
        "controller": (streamed.controller.log, whole.controller.log),
    }
    for name, (table, whole_table) in tables.items():
        assert blocks[name] and all(len(b) == B * table.layout.size for b in blocks[name]), name
        assert b"".join(blocks[name]) + table.rows == whole_table.rows, name
    assert blocks["frames"] and all(len(rows) == B * streamed.log.frames.layout.size for rows, _ in blocks["frames"])
    # a block's wire_end counts from the block's first wire byte
    dtype, offset, frames = streamed.log.frames.dtype, 0, []
    for rows, wire in [*blocks["frames"], (bytes(streamed.log.frames.rows), bytes(streamed.log.wire))]:
        records = np.frombuffer(rows, dtype=dtype).copy()
        records["wire_end"] += offset
        frames.append(records)
        offset += len(wire)
    assert np.concatenate(frames).tobytes() == bytes(whole.log.frames.rows)
    assert b"".join(wire for _, wire in blocks["frames"]) + streamed.log.wire == whole.log.wire


def capture_writers(monkeypatch):
    """Record every LogWriter that run_scenario makes, with the pid of its
    writer process."""
    writers = []
    real_init = pvrun.LogWriter.__init__

    def init(self, files):
        real_init(self, files)
        writers.append((self, self.pid))  # in the parent only: the child never returns

    monkeypatch.setattr(pvrun.LogWriter, "__init__", init)
    return writers


def assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def breach_at_step(monkeypatch, step):
    """Make the controller log a p_batt one ulp off at `step`: the log takes
    the p_batt that SmoothingController.step returns, and the setpoint its
    i_set, which stays as it was."""
    real_step = controller.SmoothingController.step

    def step_one_ulp_off(self, p_pv_w, v_batt_v):
        p_hat, p_batt, i_set, fault = real_step(self, p_pv_w, v_batt_v)
        if self.k - 1 == step:
            p_batt = float(np.nextafter(p_batt, np.inf))
        return p_hat, p_batt, i_set, fault

    monkeypatch.setattr(controller.SmoothingController, "step", step_one_ulp_off)


@pytest.mark.parametrize("engine", ["inproc", "socket", "free_running_socket"])
def test_breach_after_the_first_block_leaves_no_artifact(engine, tmp_path, monkeypatch):
    _, transport, transport_cfg = ENGINES[engine]
    step = B + 100
    breach_at_step(monkeypatch, step)
    writers = capture_writers(monkeypatch)
    on_disk = {}
    real_check = pvrun.check_run_invariants

    def check(cfg, **tables):
        # when the breach is found, the first block of each table reaches its
        # temp file as the writer process formats it: wait for all three
        log = tables.get("log")
        if log is not None and step in log.k:
            deadline = time.monotonic() + bus.SOCKET_TIMEOUT_S
            while time.monotonic() < deadline:
                on_disk.update({p.name: p.stat().st_size for p in out.glob("*.tmp")})
                if len(on_disk) == 3 and all(on_disk.values()):
                    break
                time.sleep(0.01)
        return real_check(cfg, **tables)

    monkeypatch.setattr(pvrun, "check_run_invariants", check)
    cfg = validate_scenario(ScenarioConfig(seed=2, transport=transport_cfg))
    series = synth_pv("cloud_random", (2 * B + 10) * 5.0, 5.0, 3000.0, seed=2)
    out = tmp_path / "out"
    with pytest.raises(RunFault, match=f"conservation breach at controller step {step}") as err:
        run_scenario(cfg, series, out, transport=transport)
    assert (err.value.kind, err.value.step) == (INVARIANT, step)
    assert sorted(name.split(".")[0] for name in on_disk) == ["controller_log", "frames", "plant_trace"]
    assert all(size > 0 for size in on_disk.values())
    assert list(out.iterdir()) == []
    assert_reaped(writers[0][1])


@pytest.mark.parametrize("transport", ["inproc", "socket"])
def test_a_killed_writer_process_ends_the_run_within_the_timeout(transport, tmp_path, monkeypatch):
    monkeypatch.setattr(bus, "SOCKET_TIMEOUT_S", 5.0)
    writers = capture_writers(monkeypatch)
    real_check = pvrun.check_run_invariants

    def check(cfg, **tables):
        if "log" in tables and tables["log"].start == 0:
            os.kill(writers[0][1], signal.SIGKILL)  # at the first controller block
        return real_check(cfg, **tables)

    monkeypatch.setattr(pvrun, "check_run_invariants", check)
    cfg = validate_scenario(ScenarioConfig(seed=5))
    series = synth_pv("cloud_random", (3 * B + 7) * 5.0, 5.0, 3000.0, seed=5)
    out = tmp_path / "out"
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match=r"log writer process died \(signal 9\)"):
        run_scenario(cfg, series, out, transport=transport)
    assert time.monotonic() - t0 < bus.SOCKET_TIMEOUT_S
    assert list(out.iterdir()) == []
    assert_reaped(writers[0][1])


@pytest.mark.parametrize("transport", ["inproc", "socket"])
def test_a_stopped_writer_process_ends_the_run_within_the_timeout(transport, tmp_path, monkeypatch):
    # the writer is stopped right after the fork, and the blocks fill the
    # socket's buffer mid-session
    monkeypatch.setattr(bus, "SOCKET_TIMEOUT_S", 2.0)
    writers = capture_writers(monkeypatch)
    capturing_init = pvrun.LogWriter.__init__

    def init(self, files):
        capturing_init(self, files)
        os.kill(self.pid, signal.SIGSTOP)

    monkeypatch.setattr(pvrun.LogWriter, "__init__", init)
    real_check = pvrun.check_run_invariants
    starts = []

    def check(cfg, **tables):
        starts.extend(tables[name].start for name in ("log", "trace") if name in tables)
        return real_check(cfg, **tables)

    monkeypatch.setattr(pvrun, "check_run_invariants", check)
    cfg = validate_scenario(ScenarioConfig(seed=7))
    series = synth_pv("cloud_random", 12 * B * 5.0, 5.0, 3000.0, seed=7)
    out = tmp_path / "out"
    t0 = time.monotonic()
    with pytest.raises(pvrun.OutputError, match=r"log writer process sent nothing for 2.0 s"):
        run_scenario(cfg, series, out, transport=transport)
    assert time.monotonic() - t0 < 2 * bus.SOCKET_TIMEOUT_S
    assert max(starts) < 11 * B  # the session never reached its last block
    assert list(out.iterdir()) == []
    assert_reaped(writers[0][1])


@pytest.mark.parametrize("transport", ["inproc", "socket"])
def test_a_failing_writer_process_raises_its_message_in_the_run(transport, tmp_path, monkeypatch):
    writers = capture_writers(monkeypatch)

    def disk_full(tagged_hex, out):  # runs in the writer process, which inherits the patch
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(pvrun, "write_hexdump", disk_full)
    cfg = validate_scenario(ScenarioConfig(seed=6))
    series = synth_pv("cloud_random", (B + 7) * 5.0, 5.0, 3000.0, seed=6)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match=r"log writer process failed: OSError: \[Errno 28\] No space left"):
        run_scenario(cfg, series, out, transport=transport)
    assert list(out.iterdir()) == []
    assert_reaped(writers[0][1])


def test_an_unknown_transport_is_an_input_error_before_anything_starts(tmp_path, monkeypatch):
    writers = capture_writers(monkeypatch)
    cfg = validate_scenario(ScenarioConfig(seed=1))
    series = synth_pv("cloud_random", 10 * 5.0, 5.0, 3000.0, seed=1)
    with pytest.raises(ConfigError, match="transport: 'tcp' not one of"):
        run_scenario(cfg, series, tmp_path / "out", transport="tcp")
    assert not (tmp_path / "out").exists()
    assert writers == []  # no writer process was forked


def test_breach_after_the_first_block_exits_2_from_the_cli(tmp_path, monkeypatch, capsys):
    breach_at_step(monkeypatch, B + 100)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "seed": 2,
        "source": {"kind": "synth", "profile": "cloud_random", "duration_s": (2 * B + 10) * 5.0},
    }))
    out = tmp_path / "out"
    for transport in ("inproc", "socket"):
        code = main(["run", "--scenario", str(scenario), "--out", str(out), "--transport", transport])
        assert code == 2, transport
        assert "invariant breach" in capsys.readouterr().err
        assert list(out.iterdir()) == []


def peak_bytes_of_run(n, tmp_path):
    cfg = validate_scenario(ScenarioConfig(seed=1))
    series = synth_pv("cloud_random", n * 5.0, 5.0, 3000.0, seed=1)
    tracemalloc.start(1)
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_scenario(cfg, series, tmp_path / str(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base


def test_run_scenario_peak_grows_at_most_8_bytes_per_step(tmp_path):
    # the blocks in flight are fixed in size; what grows with the run is the
    # raw ramp-rate arrays and p_hat at the evaluation points, one value
    # per evaluation interval. A whole p_hat alone would be 8 bytes per step
    small = peak_bytes_of_run(16 * B, tmp_path)
    large = peak_bytes_of_run(32 * B, tmp_path)
    per_step = (large - small) / (16 * B)
    assert per_step <= 8, (small, large, per_step)


def test_only_the_writer_process_loads_the_float_formatter(tmp_path):
    # orjson formats the logs in the writer process; the session's process,
    # whose peak RSS the benchmark reports, never imports it
    script = (
        "import sys\n"
        "from pvsmooth.config import ScenarioConfig\n"
        "from pvsmooth.run import run_scenario\n"
        "from pvsmooth.synth import synth_pv\n"
        f"run_scenario(ScenarioConfig(seed=1), synth_pv('cloud_random', {3 * B} * 5.0, 5.0, 3000.0, seed=1), r'{tmp_path / 'out'}')\n"
        "print('orjson' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pvrun.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    assert (tmp_path / "out" / "plant_trace.csv").read_text().count("\n") == 3 * B + 1


def test_a_run_without_jitter_never_loads_numpy_random(tmp_path):
    # nothing is drawn without jitter, so a CSV-fed run builds no generator
    # and never imports numpy.random (some 1.7 MiB of RSS)
    csv_path = tmp_path / "pv.csv"
    csv_path.write_text("t_s,power_w\n" + "".join(f"{5 * i},{100.0 + i % 50}\n" for i in range(3 * B)))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"source": {"kind": "csv", "path": str(csv_path), "rated_power_w": 3000.0}}))
    script = (
        "import sys\n"
        "from pvsmooth.cli import main\n"
        f"code = main(['run', '--scenario', r'{scenario}', '--out', r'{tmp_path / 'out'}'])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pvrun.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def block_bytes(table_id, table):
    """A block as LogWriter.send puts it on the stream: header, then records."""
    return pvrun._HEADER.pack(table_id, len(table), table.start, len(table.rows)) + table.rows


def test_the_writer_formats_nothing_of_a_truncated_block(tmp_path):
    # a whole controller block, then a stream that ends 80 bytes into a plant block
    tables = {
        pvrun.CONTROLLER: Records(controller.CONTROLLER_LOG_COLUMNS),
        pvrun.PLANT: Records(PLANT_TRACE_COLUMNS),
    }
    values = {"q": range(1, 21), "b": [i % 2 for i in range(20)], "d": [i / 3 for i in range(20)]}
    for table in tables.values():
        columns = [values[table.dtype[name].char] for name in table.names]
        for row in zip(*columns):
            table.rows += table.layout.pack(*row)
    stream = block_bytes(pvrun.CONTROLLER, tables[pvrun.CONTROLLER])
    stream += block_bytes(pvrun.PLANT, tables[pvrun.PLANT])[: pvrun._HEADER.size + 80]
    files = [AtomicWriter(tmp_path / name) for name in STREAMED_FILES]
    with pytest.raises(EOFError, match="in the middle of a block"):
        pvrun._format_blocks(io.BufferedReader(io.BytesIO(stream)), files)
    for out in files:
        out.close()
    plant_csv, ctrl_csv, frames_hex = (out.tmp.read_text(encoding="utf-8") for out in files)
    assert ctrl_csv == "".join(tables[pvrun.CONTROLLER].csv_chunks())
    assert plant_csv == frames_hex == ""  # not even the plant trace's header
