import json
import math
import socket
import threading
import time

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import column_bytes, ideal_battery, session_bytes
from pvsmooth import bus
from pvsmooth.bus import (
    C2S,
    S2C,
    PlantBoundary,
    ControllerPeer,
    SocketEndpoint,
    drive,
    quantize,
    resolve_quantization,
    run_free_running,
    run_lockstep_inproc,
    run_lockstep_socket,
    run_session,
)
from pvsmooth.config import (
    QuantizationConfig,
    ScenarioConfig,
    TransportConfig,
    validate_scenario,
)
from pvsmooth.controller import SmoothingController
from pvsmooth.frames import (
    MSG_END,
    MSG_FAULT,
    MSG_SENSOR,
    MSG_SETPOINT,
    FrameError,
    decode_frame,
    encode_frame,
    end_frame,
    fault_frame,
    sensor_frame,
    setpoint_frame,
)
from pvsmooth.cli import main
from pvsmooth.plant import PROTOCOL, PlantDriver, RunFault
from pvsmooth.run import run_scenario
from pvsmooth.series import PowerSeries
from pvsmooth.synth import synth_pv


# --- quantization ----------------------------------------------------------


def test_quantize_12bit_step_of_one():
    # 2**12 codes over [0, 4096]: step is exactly 1.0
    assert quantize(1000.3, 12, (0.0, 4096.0)) == 1000.0
    assert quantize(1000.5, 12, (0.0, 4096.0)) == 1001.0  # ties away from zero
    assert quantize(1000.7, 12, (0.0, 4096.0)) == 1001.0


def test_quantize_endpoints():
    assert quantize(0.0, 12, (0.0, 4096.0)) == 0.0
    assert quantize(-50.0, 12, (0.0, 4096.0)) == 0.0  # clamped to lo
    # hi clamps to the top code, one step below hi
    assert quantize(4096.0, 12, (0.0, 4096.0)) == 4095.0
    assert quantize(1e9, 12, (0.0, 4096.0)) == 4095.0


def test_quantize_passes_non_finite_values_through():
    # no converter code stands for NaN or inf; clamping NaN gave the top code
    assert math.isnan(quantize(math.nan, 12, (-110.0, 110.0)))
    assert quantize(math.inf, 12, (-110.0, 110.0)) == math.inf
    assert quantize(-math.inf, 12, (-110.0, 110.0)) == -math.inf


def test_quantize_rejects_bad_range():
    with pytest.raises(ValueError):
        quantize(1.0, 12, (5.0, 5.0))


@given(
    v=st.floats(-100.0, 100.0),
    bits=st.integers(8, 16),
    lo=st.floats(-50.0, 0.0),
    span=st.floats(1.0, 200.0),
)
@settings(max_examples=150)
def test_quantize_idempotent_and_bounded(v, bits, lo, span):
    fs = (lo, lo + span)
    q = quantize(v, bits, fs)
    assert quantize(q, bits, fs) == q
    assert fs[0] <= q <= fs[1]
    step = span / 2**bits
    if fs[0] <= v <= fs[1]:
        if v > fs[1] - step / 2:
            # the converter saturates at the top code, one step below hi
            assert abs(q - v) <= step + 1e-12 * span
        else:
            assert abs(q - v) <= step / 2 + 1e-12 * span


def test_resolved_default_ranges(default_cfg):
    r = resolve_quantization(QuantizationConfig(), default_cfg, 3000.0)
    assert r.power_range_w == (0.0, 6000.0)
    assert r.voltage_range_v == (0.0, 1.5 * 58.0)
    assert r.current_range_a == (-110.0, 110.0)
    assert resolve_quantization(None, default_cfg, 3000.0) is None


# --- lockstep sessions -----------------------------------------------------


def three_sample_cfg():
    return validate_scenario(ScenarioConfig(window_s=10.0))


def test_lockstep_alternation_log():
    series = PowerSeries([10.0, 20.0, 30.0], 5.0, 100.0)
    result = run_lockstep_inproc(series, three_sample_cfg())
    f = result.log.frames
    kinds = list(zip(f.direction, f.msg_type))
    assert kinds == [
        (S2C, MSG_SENSOR),
        (C2S, MSG_SETPOINT),
        (S2C, MSG_SENSOR),
        (C2S, MSG_SETPOINT),
        (S2C, MSG_SENSOR),
        (C2S, MSG_SETPOINT),
        (S2C, MSG_END),
    ]
    assert f.seq.tolist() == [1, 1, 2, 2, 3, 3, 4]


def test_sensor_and_setpoint_counts_match():
    series = synth_pv("cloud_square", 1800, 5, 1000.0)
    result = run_lockstep_inproc(series, validate_scenario(ScenarioConfig()))
    f = result.log.frames
    sensors = [seq for seq, t in zip(f.seq, f.msg_type) if t == MSG_SENSOR]
    setpoints = [seq for seq, t in zip(f.seq, f.msg_type) if t == MSG_SETPOINT]
    assert len(sensors) == len(setpoints) == 360
    assert sensors == setpoints


def test_same_config_reruns_identically():
    series = synth_pv("cloud_random", 600, 5, 1000.0, seed=11)
    cfg = validate_scenario(
        ScenarioConfig(transport=TransportConfig(latency_ms=20.0, jitter_ms=5.0))
    )
    a = run_lockstep_inproc(series, cfg)
    b = run_lockstep_inproc(series, cfg)
    assert session_bytes(a) == session_bytes(b)


def test_socket_matches_inproc_bitwise():
    # the socket session runs in its caller's thread: none is started for it
    series = synth_pv("cloud_random", 900, 5, 3000.0, seed=3)
    cfg = validate_scenario(ScenarioConfig())
    threads = set()

    def count_threads(i, data):
        threads.add(threading.active_count())
        return data

    a = run_lockstep_inproc(series, cfg)
    before = threading.active_count()
    b = run_lockstep_socket(series, cfg, corrupt_s2c=count_threads)
    assert session_bytes(a) == session_bytes(b)
    assert threads == {before}


def test_controller_in_separate_process_matches_inproc(tmp_path):
    # the wire format is the whole contract: a controller hosted in another
    # interpreter produces byte-identical traffic and an identical step log
    import subprocess
    import sys

    from pvsmooth.bus import SocketEndpoint
    from pvsmooth.run import write_controller_log
    from pvsmooth.util import AtomicWriter

    series = synth_pv("cloud_random", 600, 5, 3000.0, seed=17)
    cfg = validate_scenario(ScenarioConfig(window_s=60.0, seed=17))
    inproc = run_lockstep_inproc(series, cfg)
    log_inproc = tmp_path / "ctrl_inproc.csv"
    with AtomicWriter(log_inproc) as out:
        write_controller_log(inproc.controller.log, out)

    conn, controller_end = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
    log_remote = tmp_path / "ctrl_remote.csv"
    script = (
        "import socket\n"
        "from pvsmooth.bus import ControllerPeer, SocketEndpoint\n"
        "from pvsmooth.run import write_controller_log\n"
        "from pvsmooth.util import AtomicWriter\n"
        f"conn = socket.socket(fileno={controller_end.fileno()})\n"
        f"peer = ControllerPeer({cfg.n_window})\n"
        "SocketEndpoint(conn).serve(peer)\n"
        f"with AtomicWriter(r'{log_remote}') as out:\n"
        "    write_controller_log(peer.driver.log, out)\n"
    )
    with controller_end:  # the child holds its own copy
        proc = subprocess.Popen([sys.executable, "-c", script], pass_fds=(controller_end.fileno(),))
    try:
        plant = PlantDriver(series, cfg)
        boundary = PlantBoundary(cfg, series.rated_power_w)
        drive(plant, boundary, SocketEndpoint(conn), free_running=False)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()

    assert column_bytes(boundary.log.frames) == column_bytes(inproc.log.frames)
    assert boundary.log.wire == inproc.log.wire
    assert column_bytes(plant.trace) == column_bytes(inproc.plant.trace)
    assert log_remote.read_bytes() == log_inproc.read_bytes()


def test_lockstep_latency_shifts_timestamps_only():
    series = PowerSeries([10.0, 20.0, 30.0], 5.0, 100.0)
    cfg0 = three_sample_cfg()
    cfg1 = validate_scenario(
        replace(cfg0, transport=TransportConfig(latency_ms=250.0, jitter_ms=100.0, seed=4))
    )
    a = run_lockstep_inproc(series, cfg0)
    b = run_lockstep_inproc(series, cfg1)
    # identical bytes in identical order, different recorded delivery times
    assert a.log.wire == b.log.wire
    assert a.log.frames.wire_end.tolist() == b.log.frames.wire_end.tolist()
    fa, fb = a.log.frames, b.log.frames
    assert fa.t_deliver_ms.tolist() == fa.t_send_ms.tolist()
    assert all(t_deliver >= t_send + 150.0 for t_send, t_deliver in zip(fb.t_send_ms, fb.t_deliver_ms))


def test_loop_equals_direct_function_composition():
    # zero latency, no quantization: the bus must not change any number
    series = synth_pv("cloud_square", 600, 5, 1000.0)
    cfg = validate_scenario(ScenarioConfig(window_s=60.0, battery=ideal_battery()))
    result = run_lockstep_inproc(series, cfg)

    ctrl = SmoothingController(cfg.n_window)
    plant = PlantDriver(series, cfg)
    v = plant.first_reading[3]
    for k in range(len(series)):
        p_hat, _, i_set, _ = ctrl.step(float(series.samples[k]), v)
        v = plant.apply_interval(i_set)[3]
        assert result.controller.log.p_hat_w[k] == p_hat
        assert result.controller.log.i_set_a[k] == i_set
    assert plant.trace.soc.tolist() == result.plant.trace.soc.tolist()
    assert plant.trace.p_grid_w.tolist() == result.plant.trace.p_grid_w.tolist()


ENGINES = {
    "inproc": run_lockstep_inproc,
    "socket": run_lockstep_socket,
    "free_running": run_free_running,
}


class NanPeer:
    """Answers every sensor frame with a CRC-valid NaN setpoint."""

    def __init__(self):
        self.received = []
        self.closed = False

    def exchange(self, data):
        frame = decode_frame(data)
        self.received.append(frame)
        if frame.msg_type != MSG_SENSOR:
            return None
        return encode_frame(setpoint_frame(frame.seq, frame.sim_time_ms, math.nan))

    def close(self):
        self.closed = True


@pytest.mark.parametrize("quantization", [None, QuantizationConfig(bits=12)], ids=["raw", "dac"])
def test_drive_faults_on_nan_setpoint(quantization):
    series = PowerSeries([10.0, 20.0, 30.0], 5.0, 100.0)
    cfg = validate_scenario(
        ScenarioConfig(window_s=10.0, transport=TransportConfig(quantization=quantization))
    )
    plant = PlantDriver(series, cfg)
    peer = NanPeer()
    with pytest.raises(RunFault, match="non-finite") as err:
        drive(plant, PlantBoundary(cfg, series.rated_power_w), peer, free_running=False)
    assert err.value.kind == PROTOCOL
    # nothing was integrated, and the peer was told before the session ended
    assert len(plant.trace) == 0
    assert [f.msg_type for f in peer.received] == [MSG_SENSOR, MSG_FAULT]
    assert peer.closed


@pytest.mark.parametrize("engine", ENGINES.values(), ids=ENGINES.keys())
def test_corrupted_frame_mid_run_recovers(engine):
    series = PowerSeries([10.0, 20.0, 30.0, 40.0], 5.0, 100.0)
    cfg = validate_scenario(ScenarioConfig(window_s=10.0))

    def flip_bit(idx: int, data: bytes) -> bytes:
        if idx == 1:  # corrupt the second sensor frame
            out = bytearray(data)
            out[25] ^= 0x10
            return bytes(out)
        return data

    result = engine(series, cfg, corrupt_s2c=flip_bit)
    assert result.controller.error_count == 1
    log = result.controller.log
    assert log.fault.tolist() == [0, 1, 0, 0]
    assert log.k.tolist() == [1, 0, 2, 3]  # the lost sample's row has k=0
    assert log.i_set_a[1] == 0.0
    # loop survived to completion
    assert result.plant.k == result.plant.n_samples
    assert len(result.plant.trace) == 4


def corrupt_reply_to(monkeypatch, seq: int) -> list[int]:
    """Make every ControllerPeer flip a CRC bit of its reply to sensor frame
    `seq`; returns the message types of the plant frames the peers are handed."""
    real_exchange = ControllerPeer.exchange
    seen = []

    def exchange(self, data):
        frame = decode_frame(data)
        seen.append(frame.msg_type)
        reply = real_exchange(self, data)
        if frame.msg_type == MSG_SENSOR and frame.seq == seq:
            reply = reply[:-1] + bytes([reply[-1] ^ 1])
        return reply

    monkeypatch.setattr(ControllerPeer, "exchange", exchange)
    return seen


# engine, run_scenario's transport, the scenario's transport section
SETPOINT_FAULT_ENGINES = {
    "inproc": (run_lockstep_inproc, "inproc", {}),
    "socket": (run_lockstep_socket, "socket", {}),
    "free_running": (run_free_running, "inproc", {"mode": "free_running", "latency_ms": 4000.0, "jitter_ms": 1500.0}),
}


@pytest.mark.parametrize("name", SETPOINT_FAULT_ENGINES)
def test_corrupted_setpoint_ends_the_run_as_a_protocol_fault(name, monkeypatch, tmp_path, capsys):
    # an undecodable setpoint is not a lost sample: the plant stops, tells
    # the controller with a FAULT frame, and the run leaves nothing behind
    engine, transport, section = SETPOINT_FAULT_ENGINES[name]
    cfg = validate_scenario(ScenarioConfig(window_s=60.0, transport=TransportConfig(**section)))
    series = synth_pv("cloud_random", 120 * 5.0, 5.0, 1000.0, seed=2)
    seen = corrupt_reply_to(monkeypatch, 49)
    with pytest.raises(RunFault, match="^undecodable reply in place of setpoint 49: ") as err:
        engine(series, cfg)
    assert (err.value.kind, err.value.step) == (PROTOCOL, 49)
    assert seen[-1] == MSG_FAULT and seen.count(MSG_FAULT) == 1

    with pytest.raises(RunFault, match="setpoint 49"):
        run_scenario(cfg, series, tmp_path / "run", transport=transport)
    assert list((tmp_path / "run").iterdir()) == []

    scenario = tmp_path / "scenario.json"
    source = {"kind": "synth", "profile": "cloud_random", "duration_s": 600.0, "rated_w": 1000.0}
    scenario.write_text(json.dumps({"window_s": 60.0, "seed": 2, "transport": section, "source": source}))
    args = ["run", "--scenario", str(scenario), "--out", str(tmp_path / "cli"), "--transport", transport]
    assert main(args) == 4
    assert "protocol fault: undecodable reply in place of setpoint 49" in capsys.readouterr().err
    assert list((tmp_path / "cli").iterdir()) == []


def flip_bit_of_frames(indices, byte: int, bit: int):
    def corrupt(idx: int, data: bytes) -> bytes:
        if idx in indices:
            out = bytearray(data)
            out[byte] ^= 1 << bit
            return bytes(out)
        return data

    return corrupt


def cut_frame(index: int, n: int):
    """corrupt_s2c hook: outbound frame `index` keeps only its first n bytes."""
    return lambda idx, data: data[:n] if idx == index else data


SAMPLES_4 = PowerSeries([10.0, 20.0, 30.0, 40.0], 5.0, 100.0)


@pytest.mark.parametrize(
    "corrupt",
    [flip_bit_of_frames({1}, byte, bit) for byte, bit in [(18, 3), (18, 4), (18, 7), (19, 0), (0, 0), (4, 1), (5, 4)]]
    + [flip_bit_of_frames({1}, 5, 1), flip_bit_of_frames({len(SAMPLES_4)}, 5, 1), cut_frame(1, 5)],
    ids=["len-bit3", "len-bit4", "len-bit7", "len-high", "magic", "version", "msg-type",
         "sensor-to-end", "end-to-sensor", "cut-in-header"],
)
def test_corrupted_header_on_socket_matches_inproc(corrupt, monkeypatch):
    # a corrupted header (on a sensor frame or on END) costs one lost sample
    # on the socket too, and no read waits for the timeout
    monkeypatch.setattr(bus, "SOCKET_TIMEOUT_S", 1.0)
    cfg = validate_scenario(ScenarioConfig(window_s=10.0))
    t0 = time.monotonic()
    over_socket = run_lockstep_socket(SAMPLES_4, cfg, corrupt_s2c=corrupt)
    assert time.monotonic() - t0 < 1.0
    inproc = run_lockstep_inproc(SAMPLES_4, cfg, corrupt_s2c=corrupt)
    assert inproc.controller.error_count == over_socket.controller.error_count == 1
    assert over_socket.log.hexdump() == inproc.log.hexdump()
    assert session_bytes(over_socket) == session_bytes(inproc)


def test_emptied_sensor_frame_ends_a_socket_session_at_once(monkeypatch):
    # the one corruption on which the transports differ: an empty message
    # reads as a close, so the socket session ends as a protocol fault where
    # the in-process one loses a sample; either way nothing waits
    monkeypatch.setattr(bus, "SOCKET_TIMEOUT_S", 1.0)
    cfg = validate_scenario(ScenarioConfig(window_s=10.0))
    assert run_lockstep_inproc(SAMPLES_4, cfg, corrupt_s2c=cut_frame(1, 0)).controller.error_count == 1
    t0 = time.monotonic()
    with pytest.raises(RunFault, match="controller connection closed") as err:
        run_lockstep_socket(SAMPLES_4, cfg, corrupt_s2c=cut_frame(1, 0))
    assert err.value.kind == PROTOCOL
    assert time.monotonic() - t0 < 0.5


def test_endpoint_refuses_a_stream_socket():
    # a stream may merge or split frames; only a message socket keeps them whole
    a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    with a, b, pytest.raises(ValueError, match="SOCK_SEQPACKET"):
        SocketEndpoint(a)


def stub_peer():
    """(plant-side socket, stub controller socket): a message socket pair
    whose controller end does only what the test makes it do."""
    return socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)


def drive_against(conn):
    series = PowerSeries([10.0, 20.0, 30.0], 5.0, 100.0)
    cfg = three_sample_cfg()
    plant = PlantDriver(series, cfg)
    drive(plant, PlantBoundary(cfg, series.rated_power_w), SocketEndpoint(conn), free_running=False)


def test_silent_controller_is_a_protocol_fault(monkeypatch):
    # a peer that accepts and never answers ends the session; it does not hang
    import time

    monkeypatch.setattr(bus, "SOCKET_TIMEOUT_S", 0.2)
    conn, stub = stub_peer()
    with stub:
        t0 = time.perf_counter()
        with pytest.raises(RunFault, match="peer sent nothing for 0.2 s") as err:
            drive_against(conn)
        assert err.value.kind == PROTOCOL
        assert time.perf_counter() - t0 < 5.0
        # the plant still told the peer why it stopped: SENSOR, then FAULT
        stub.settimeout(5.0)
        assert [decode_frame(stub.recv(64)).msg_type for _ in range(2)] == [MSG_SENSOR, MSG_FAULT]


def test_controller_closing_mid_session_is_a_protocol_fault(monkeypatch):
    monkeypatch.setattr(bus, "SOCKET_TIMEOUT_S", 5.0)
    conn, stub = stub_peer()
    stub.close()
    with pytest.raises(RunFault, match="controller connection closed") as err:
        drive_against(conn)
    assert err.value.kind == PROTOCOL


def test_controller_error_is_raised_on_the_plant_side(monkeypatch):
    # what the controller's end raises reaches the caller as it was raised
    boom = RuntimeError("controller failed")

    def exchange(peer, data):
        raise boom

    monkeypatch.setattr(bus.ControllerPeer, "exchange", exchange)
    with pytest.raises(RuntimeError) as err:
        run_lockstep_socket(PowerSeries([10.0, 20.0, 30.0], 5.0, 100.0), three_sample_cfg())
    assert err.value is boom


@pytest.mark.parametrize(
    "cut, error", [(10, "need 20 header bytes, got 10"), (30, "declared 32 bytes, got 30")]
)
def test_controller_closing_mid_reply_is_a_protocol_fault(cut, error):
    # the plant reads a reply cut short by a closing controller as the frame
    # it is, which decode_frame rejects: the first setpoint never came
    conn, stub = stub_peer()
    with stub:
        stub.sendall(encode_frame(setpoint_frame(1, 0, 0.0))[:cut])
        stub.shutdown(socket.SHUT_WR)
        with pytest.raises(RunFault, match=f"in place of setpoint 1: {error}") as err:
            drive_against(conn)
        assert (err.value.kind, err.value.step) == (PROTOCOL, 1)
        assert isinstance(err.value.__cause__, FrameError)


def test_quantization_applies_on_the_wire():
    series = PowerSeries([1000.3, 1000.3, 1000.3], 5.0, 2048.0)
    q = QuantizationConfig(bits=12, power_range_w=(0.0, 4096.0), voltage_range_v=(0.0, 64.0),
                           current_range_a=(-64.0, 64.0))
    cfg = validate_scenario(
        ScenarioConfig(window_s=10.0, battery=ideal_battery(),
                       transport=TransportConfig(quantization=q))
    )
    result = run_lockstep_inproc(series, cfg)
    # the controller saw the quantized power, not the raw one
    assert result.controller.log.p_pv_w.tolist() == [1000.0] * 3
    # and the plant saw quantized setpoints: multiples of 128/4096 A
    step = 128.0 / 4096.0
    for i_request_a in result.plant.trace.i_request_a:
        assert abs(i_request_a / step - round(i_request_a / step)) < 1e-9


# --- free-running ---------------------------------------------------------


def freerun_cfg(latency=100.0, jitter=50.0, seed=9):
    return validate_scenario(
        ScenarioConfig(
            transport=TransportConfig(
                mode="free_running", latency_ms=latency, jitter_ms=jitter, seed=seed
            )
        )
    )


def test_free_running_same_seed_identical_logs():
    series = synth_pv("cloud_random", 900, 5, 3000.0, seed=5)
    a = run_free_running(series, freerun_cfg())
    b = run_free_running(series, freerun_cfg())
    assert session_bytes(a) == session_bytes(b)
    assert any(a.log.frames.draw_ms)


def test_free_running_different_seed_differs():
    series = synth_pv("cloud_random", 900, 5, 3000.0, seed=5)
    a = run_free_running(series, freerun_cfg(seed=9))
    b = run_free_running(series, freerun_cfg(seed=10))
    assert a.log.hexdump() != b.log.hexdump()


def test_free_running_delivery_times_replay_from_draws():
    series = synth_pv("cloud_random", 600, 5, 3000.0, seed=5)
    result = run_free_running(series, freerun_cfg(latency=100.0, jitter=50.0))
    last = {S2C: 0.0, C2S: 0.0}
    f = result.log.frames
    for direction, t_send, t_deliver, draw in zip(f.direction, f.t_send_ms, f.t_deliver_ms, f.draw_ms):
        t = max(t_send + 100.0 + draw, last[direction])
        last[direction] = t
        assert t == t_deliver
        assert abs(draw) <= 50.0


def test_free_running_draws_equal_scalar_draws():
    # drawing jitter in blocks gives the scalar draw sequence, value for
    # value, across block boundaries (4,321 frames here)
    series = synth_pv("cloud_random", 3 * 3600, 5, 3000.0, seed=5)
    result = run_free_running(series, freerun_cfg(latency=100.0, jitter=50.0, seed=9))
    rng = np.random.default_rng(9)
    draws = result.log.frames.draw_ms.tolist()
    assert len(draws) == 2 * len(series) + 1
    assert draws == [float(rng.uniform(-50.0, 50.0)) for _ in draws]


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 200),
    window_s=st.sampled_from([5.0, 60.0, 1800.0]),
    bits=st.one_of(st.none(), st.integers(8, 16)),
    corrupted=st.sets(st.integers(0, 199), max_size=3),
)
@settings(max_examples=20, deadline=None)
def test_free_running_zero_latency_matches_lockstep(seed, n, window_s, bits, corrupted):
    # lockstep is free-running with an infinite horizon: with no delay the
    # free-running delivery rule and the socket peer change nothing, with or
    # without the converters (whose frames take the boundary's outbound and
    # inbound) and with up to three sensor frames lost to a flipped bit: same
    # frames, same times, same plant and controller columns, bit for bit
    series = synth_pv("cloud_random", n * 5.0, 5, 3000.0, seed=seed)
    transport = TransportConfig(quantization=None if bits is None else QuantizationConfig(bits=bits))
    cfg = validate_scenario(ScenarioConfig(window_s=window_s, seed=seed, transport=transport))
    lost = {i % n for i in corrupted}  # sensor frames, not END
    corrupt = flip_bit_of_frames(lost, 25, 4)
    lock = run_lockstep_inproc(series, cfg, corrupt_s2c=corrupt)
    assert lock.controller.error_count == len(lost)
    free_cfg = validate_scenario(replace(cfg, transport=replace(cfg.transport, mode="free_running")))
    for other in (
        run_free_running(series, free_cfg, corrupt_s2c=corrupt),
        run_lockstep_socket(series, cfg, corrupt_s2c=corrupt),
        # run_session's socket engine, which takes no corrupt_s2c hook
        bus._run(series, free_cfg, corrupt, free_running=True, over_socket=True),
    ):
        assert session_bytes(other) == session_bytes(lock)


def test_free_running_latency_holds_stale_setpoints():
    # 10 s each way: setpoint 1 (sent on sensor-1 delivery at t=10 s) lands at
    # t=20 s, exactly the start of interval 4; earlier intervals run at 0 A
    series = PowerSeries([100.0, 200.0, 300.0, 400.0], 5.0, 1000.0)
    cfg = validate_scenario(
        ScenarioConfig(
            window_s=10.0,
            transport=TransportConfig(mode="free_running", latency_ms=10000.0, jitter_ms=0.0, seed=1),
        )
    )
    result = run_free_running(series, cfg)
    i_set_1 = result.controller.log.i_set_a[0]
    assert i_set_1 == (100.0 - 50.0) / 53.0
    assert result.plant.trace.i_request_a.tolist() == [0.0, 0.0, 0.0, i_set_1]
    assert len(result.controller.log) == 4


def test_run_session_runs_free_running_over_the_socket():
    # the mode is a delivery rule of the one loop: run_session runs it over
    # the socket too, with what the in-process engine gives, bit for bit
    series = synth_pv("cloud_random", 300, 5, 3000.0, seed=5)
    cfg = freerun_cfg(latency=7000.0, jitter=3000.0)  # setpoints land a sample late or more
    over_socket = session_bytes(run_session(series, cfg, transport="socket"))
    assert over_socket == session_bytes(run_free_running(series, cfg))
    assert over_socket != session_bytes(run_lockstep_socket(series, cfg))
    with pytest.raises(ValueError, match="unknown transport 'tcp'"):
        run_session(series, cfg, transport="tcp")


def resign_sensor_frame(index: int, field: int, value: float):
    """corrupt_s2c hook: sensor frame `index` carries `value` in payload
    field `field` (0 power, 1 voltage), under a valid CRC."""

    def corrupt(idx: int, data: bytes) -> bytes:
        if idx != index:
            return data
        frame = decode_frame(data)
        values = list(frame.values)
        values[field] = value
        return encode_frame(sensor_frame(frame.seq, frame.sim_time_ms, *values))

    return corrupt


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 60),
    window_s=st.sampled_from([5.0, 60.0, 1800.0]),
    latency_ms=st.floats(0.0, 15000.0),
    jitter_share=st.floats(0.0, 1.0),
    bits=st.sampled_from([None, 12]),
    free_running=st.booleans(),
    index=st.integers(0, 59),
    corruption=st.sampled_from(
        [None, "flip"] + [(field, v) for field in (0, 1) for v in (math.nan, math.inf, -math.inf, -0.0)]
    ),
)
@settings(max_examples=40, deadline=None)
def test_free_running_over_the_socket_matches_inproc(
    seed, n, window_s, latency_ms, jitter_share, bits, free_running, index, corruption
):
    # same frames, times, wire bytes, plant and controller columns on both
    # transports in either mode, with delays that reorder free-running
    # delivery against the sample clock, the converters on or off, and a
    # sensor frame lost to a flipped bit or re-signed with a NaN, infinite or
    # negative-zero reading
    series = synth_pv("cloud_random", n * 5.0, 5, 3000.0, seed=seed)
    transport = TransportConfig(
        mode="free_running" if free_running else "lockstep", latency_ms=latency_ms,
        jitter_ms=jitter_share * latency_ms, seed=seed,
        quantization=None if bits is None else QuantizationConfig(bits=bits),
    )
    cfg = validate_scenario(ScenarioConfig(window_s=window_s, seed=seed, transport=transport))
    index %= n  # a sensor frame, not END
    if corruption is None:
        corrupt, lost = None, False
    elif corruption == "flip":
        corrupt, lost = flip_bit_of_frames({index}, 25, 4), True
    else:
        field, value = corruption
        corrupt, lost = resign_sensor_frame(index, field, value), field == 0 and not math.isfinite(value)
    inproc, over_socket = (
        bus._run(series, cfg, corrupt, free_running=free_running, over_socket=over)
        for over in (False, True)
    )
    assert session_bytes(over_socket) == session_bytes(inproc)
    assert over_socket.controller.error_count == inproc.controller.error_count == lost


def test_session_log_retains_under_400_bytes_per_step():
    # the plant trace, controller log and frame log are columns: about 250
    # bytes per step in all (one object per row per log cost about 950)
    import tracemalloc
    from pathlib import Path

    import pvsmooth

    series = synth_pv("cloud_random", 2000 * 5.0, 5, 3000.0, seed=1)
    cfg = validate_scenario(ScenarioConfig(seed=1))
    tracemalloc.start(1)
    try:
        result = run_lockstep_inproc(series, cfg)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    package = Path(pvsmooth.__file__).parent
    by_module = {
        Path(stat.traceback[0].filename).stem: stat.size
        for stat in snapshot.statistics("filename")
        if Path(stat.traceback[0].filename).parent == package
    }
    retained = sum(by_module.get(m, 0) for m in ("plant", "controller", "bus", "util"))
    assert len(result.plant.trace) == 2000
    assert retained / 2000 <= 400, by_module


# Messages a socket may carry: whole frames of every type, frames with a
# flipped bit, cut frames and arbitrary bytes, in any order. None is empty:
# an empty message reads as a close.
WHOLE_FRAMES = [
    encode_frame(f)
    for f in (sensor_frame(1, 0, 100.0, 50.0), sensor_frame(2, 5000, -0.0, 5e-324), setpoint_frame(1, 0, 3.5),
              end_frame(3, 10000), fault_frame(2, 5000))
]


@st.composite
def wire_messages(draw):
    frame = draw(st.sampled_from(WHOLE_FRAMES))
    kind = draw(st.sampled_from(["whole", "flipped", "cut", "arbitrary"]))
    if kind == "flipped":
        bit = draw(st.integers(0, 8 * len(frame) - 1))
        return frame[: bit // 8] + bytes([frame[bit // 8] ^ (1 << bit % 8)]) + frame[bit // 8 + 1 :]
    if kind == "cut":
        return frame[: draw(st.integers(1, len(frame) - 1))]
    if kind == "arbitrary":
        return draw(st.binary(min_size=1, max_size=64))
    return frame


@settings(max_examples=200, deadline=None)
@given(messages=st.lists(wire_messages(), max_size=8))
def test_socket_reader_turns_any_bytes_into_frames_or_frame_errors(messages):
    # Each read returns one message byte for byte, which decode_frame decodes
    # or rejects with a FrameError subclass, and the controller's serve loop
    # does not wait once the plant end has shut down writing: a wait would
    # raise a PROTOCOL RunFault after the timeout.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bus, "SOCKET_TIMEOUT_S", 2.0)
        plant_end, controller_end = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with plant_end, controller_end:
            for message in messages:
                plant_end.sendall(message)
            plant_end.close()
            reader = SocketEndpoint(controller_end)
            for message in messages:
                data = reader.recv_bytes()
                assert data == message
                try:
                    decode_frame(data)
                except FrameError:
                    pass
            with pytest.raises(EOFError):
                reader.recv_bytes()

        plant_end, controller_end = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with plant_end, controller_end:
            for message in messages:
                plant_end.sendall(message)
            plant_end.shutdown(socket.SHUT_WR)  # its reading half takes the replies
            t0 = time.monotonic()
            SocketEndpoint(controller_end).serve(ControllerPeer(4))
            assert time.monotonic() - t0 < bus.SOCKET_TIMEOUT_S
