"""Bus sessions: one session loop, its peers, quantization, latency, frame logs.

The plant-side bus boundary is where physics meets the wire:

  * outbound sensor values are quantized (ADC emulation) before encoding,
  * inbound setpoint values are quantized (DAC emulation) after decoding,
  * every frame is logged with its raw bytes plus send/delivery times.

One builder, _run, makes every session and one loop, drive, runs it; the
controller sits behind a peer, called directly or served over a message
socket pair (SocketLink: AF_UNIX SOCK_SEQPACKET, one frame per message) with
the same bytes on the wire, in the session's own thread either way. The
session mode is only a delivery rule, and either mode runs on either
transport. In lockstep mode latency and jitter shift recorded timestamps
only, so a run is bitwise reproducible on either peer. In free-running mode
delays decouple delivery from the plant's sample clock; identical seeds give
identical logs. Delivery within one direction is FIFO: a frame never
overtakes an earlier one.
"""

from __future__ import annotations

import math
import socket
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import suppress
from contextvars import ContextVar
from dataclasses import replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .config import QuantizationConfig, ScenarioConfig
from .controller import ControllerDriver
from .frames import (
    MSG_END,
    MSG_FAULT,
    MSG_SENSOR,
    MSG_SETPOINT,
    BusFrame,
    FrameError,
    decode_frame,
    encode_frame,
    sensor_frame,
    setpoint_frame,
)
from .plant import PROTOCOL, PlantDriver, RunFault
from .series import PowerSeries
from .util import Records, float_texts

# frame directions, as coded in the frame log, and their names in frame tags
S2C = 0  # plant sensor -> controller
C2S = 1  # controller setpoint -> plant
DIRECTION_NAMES = ("s2c", "c2s")
TRANSPORTS = ("inproc", "socket")  # the media a session runs over

# longest wait for a message from a peer
SOCKET_TIMEOUT_S = 10.0
# longest message read whole; a longer one is cut, and decode_frame rejects it
RECV_MAX = 4096


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------


def quantize(value: float, bits: int, full_scale: tuple[float, float]) -> float:
    """Map a physical value through an ideal uniform ADC/DAC pair.

    The value is clamped to [lo, hi], snapped to the nearest of 2**bits
    uniform codes (step = (hi-lo)/2**bits, round half away from zero), and
    mapped back. Idempotent: re-quantizing a code point returns it.
    """
    lo, hi = full_scale
    if not lo < hi:
        raise ValueError(f"full_scale requires lo < hi, got {full_scale}")
    if not math.isfinite(value):
        return value  # no converter code stands for it; the plant rejects it
    n_codes = 1 << bits
    step = (hi - lo) / n_codes
    v = max(lo, min(hi, value))
    code = math.floor((v - lo) / step + 0.5)
    if code > n_codes - 1:
        code = n_codes - 1
    return lo + code * step


def resolve_quantization(
    q: QuantizationConfig | None, cfg: ScenarioConfig, rated_power_w: float
) -> QuantizationConfig | None:
    """Fill default full-scale ranges from the scenario at hand."""
    if q is None:
        return None
    limit = cfg.battery.current_limit_a
    return replace(
        q,
        power_range_w=q.power_range_w or (0.0, 2.0 * rated_power_w),
        voltage_range_v=q.voltage_range_v or (0.0, 1.5 * cfg.battery.v_max_v),
        current_range_a=q.current_range_a or (-2.0 * limit, 2.0 * limit),
    )


# ---------------------------------------------------------------------------
# Latency model and session log
# ---------------------------------------------------------------------------


DRAW_BLOCK = 4096  # jitter values taken from the generator at a time


def _jitter_draws(rng: np.random.Generator, jitter_ms: float) -> Iterator[float]:
    """Uniform(-jitter, +jitter) draws, taken from the generator in blocks.

    A block of n draws equals n scalar draws value for value, so the stream
    does not depend on the block size.
    """
    while True:
        yield from rng.uniform(-jitter_ms, jitter_ms, size=DRAW_BLOCK).tolist()


class DelayModel:
    """Seeded per-frame delivery delay: latency +/- uniform jitter.

    Draws are consumed in frame transmission order, so a fixed seed fully
    determines every delivery schedule. last_draw is the jitter of the most
    recent delay; the session log keeps it per frame for replay checks.
    """

    def __init__(self, latency_ms: float, jitter_ms: float, seed: int):
        self.latency_ms = latency_ms
        self._draws = _jitter_draws(np.random.default_rng(seed), jitter_ms) if jitter_ms > 0.0 else repeat(0.0)
        self.last_draw = 0.0

    def next_delay_ms(self) -> float:
        draw = self.last_draw = next(self._draws)
        return self.latency_ms + draw


# frame log columns with their struct format codes (seq is the wire's u32);
# wire_end is the offset in SessionLog.wire just past the frame's bytes
FRAME_LOG_COLUMNS = {
    "direction": "b",
    "seq": "I",
    "msg_type": "b",
    "t_send_ms": "d",
    "t_deliver_ms": "d",
    "draw_ms": "d",
    "wire_end": "q",
}


class SessionLog:
    """Every frame on the bus in transmission order: metadata records in
    `frames`, the bytes as sent concatenated in `wire`.

    With a sink, each full block of frames goes to sink(log) and is then
    dropped with its wire bytes, so wire_end counts from the block's start.
    """

    def __init__(self, sink: Callable[[SessionLog], None] | None = None):
        self.frames = Records(FRAME_LOG_COLUMNS, None if sink is None else self._hand_off)
        self.wire = bytearray()
        self._sink = sink

    def _hand_off(self, frames: Records) -> None:
        self._sink(self)
        self.wire.clear()

    def tagged_hex(self) -> Iterator[tuple[str, str]]:
        """(tag, wire bytes as hex) per frame, the tag naming direction, seq
        and times. The tags are built column by column, the times formatted
        in one float_texts call; the wire is hex-encoded once and sliced per
        frame."""
        frames = self.frames.view()
        n = len(frames)
        times = float_texts(np.concatenate((frames["t_send_ms"], frames["t_deliver_ms"])))
        tags = [
            f"{DIRECTION_NAMES[d]} seq={seq} send={t_send} recv={t_deliver}"
            for d, seq, t_send, t_deliver in zip(frames["direction"].tolist(), frames["seq"].tolist(), times[:n], times[n:])
        ]
        hex_wire = self.wire.hex()
        ends = (2 * frames["wire_end"]).tolist()
        return zip(tags, map(hex_wire.__getitem__, map(slice, [0, *ends[:-1]], ends)))


class PlantBoundary:
    """Plant-side bus boundary: quantization, codec, delays, frame log.

    corrupt_s2c, when set, mutates outbound sensor bytes after encoding
    (fault injection for integrity tests); it receives the 0-based outbound
    frame index and the encoded bytes. sink is the frame log's (SessionLog).
    """

    def __init__(self, cfg: ScenarioConfig, rated_power_w: float, corrupt_s2c=None, sink=None):
        t = cfg.transport
        seed = t.seed if t.seed is not None else cfg.seed + 1
        self.delays = DelayModel(t.latency_ms, t.jitter_ms, seed)
        self.quant = resolve_quantization(t.quantization, cfg, rated_power_w)
        self.log = SessionLog(sink)
        self._wire = self.log.wire
        self._rows = self.log.frames.rows  # a hand-off empties both in place
        self._pack_row = self.log.frames.layout.pack
        self.corrupt_s2c = corrupt_s2c
        self._outbound_count = 0
        self._last_s2c = self._last_c2s = 0.0  # each direction's last delivery time

    # outbound and inbound each draw their frame's delay, deliver it no
    # earlier than the frame before it in the same direction (FIFO), and
    # log it: its bytes to the wire, a record to the frames

    def outbound(self, frame: BusFrame, t_send_ms: float) -> tuple[bytes, float]:
        """Quantize+encode+log a plant frame; returns (wire bytes, delivery time)."""
        q = self.quant
        if q is not None and frame.msg_type == MSG_SENSOR:
            values = map(quantize, frame.values, (q.bits, q.bits), (q.power_range_w, q.voltage_range_v))
            frame = sensor_frame(frame.seq, frame.sim_time_ms, *values)
        data = encode_frame(frame)
        if self.corrupt_s2c is not None:
            data = self.corrupt_s2c(self._outbound_count, data)
        self._outbound_count += 1
        delays = self.delays
        t = t_send_ms + delays.next_delay_ms()
        last = self._last_s2c
        if last > t:
            t = last
        self._last_s2c = t
        wire, rows = self._wire, self._rows
        wire += data
        rows += self._pack_row(S2C, frame.seq, frame.msg_type, t_send_ms, t, delays.last_draw, len(wire))
        if len(rows) >= self.log.frames.block_bytes:
            self.log.frames.hand_off()
        return data, t

    def inbound(self, data: bytes, t_send_ms: float) -> tuple[BusFrame, float]:
        """Decode+log a controller frame; quantizes setpoint current (DAC).
        An undecodable one is a PROTOCOL fault at the setpoint it stands for."""
        try:
            frame = decode_frame(data)
        except FrameError as exc:  # the replies so far: every frame logged but the outbound ones
            seq = self.log.frames.start + len(self.log.frames) - self._outbound_count + 1
            raise RunFault(PROTOCOL, f"undecodable reply in place of setpoint {seq}: {exc}", step=seq) from exc
        delays = self.delays
        t = t_send_ms + delays.next_delay_ms()
        last = self._last_c2s
        if last > t:
            t = last
        self._last_c2s = t
        wire, rows = self._wire, self._rows
        wire += data
        rows += self._pack_row(C2S, frame.seq, frame.msg_type, t_send_ms, t, delays.last_draw, len(wire))
        if len(rows) >= self.log.frames.block_bytes:
            self.log.frames.hand_off()
        q = self.quant
        if q is not None and frame.msg_type == MSG_SETPOINT:
            frame = setpoint_frame(frame.seq, frame.sim_time_ms, quantize(frame.values[0], q.bits, q.current_range_a))
        return frame, t


class SessionResult(NamedTuple):
    plant: PlantDriver
    controller: ControllerDriver
    log: SessionLog


class Sinks(NamedTuple):
    """Where a session's tables hand their full blocks (see util.Records);
    a table whose sink is None keeps every row."""

    plant: Callable[[Records], None] | None = None
    controller: Callable[[Records], None] | None = None
    frames: Callable[[SessionLog], None] | None = None


NO_SINKS = Sinks()

# The sinks of every session started in this context, by whichever engine.
# run_scenario sets them around its session, so a session started in place
# of run_session (perfbench/test_checks.py's corrupted one) streams as well.
SESSION_SINKS: ContextVar[Sinks] = ContextVar("SESSION_SINKS", default=NO_SINKS)


# ---------------------------------------------------------------------------
# Session loop and peers
# ---------------------------------------------------------------------------


def drive(plant: PlantDriver, boundary: PlantBoundary, peer, free_running: bool) -> None:
    """Run one session from the plant side until END has reached the peer.

    Before each tick, every queued frame due by the horizon is delivered:
    sensor frames to the peer, its replies to plant.hold. The horizon is the
    tick's sample time when free-running and infinite in lockstep, where no
    frame waits: each one is delivered as it is sent, and no queue is kept.
    A PROTOCOL RunFault is reported to the peer with a FAULT frame before it
    propagates.
    """
    s2c: deque[tuple[bytes, float]] = deque()
    c2s: deque[tuple[BusFrame, float]] = deque()
    frame = plant.first_sensor()
    try:
        while True:
            data, t_arrive = boundary.outbound(frame, float(frame.sim_time_ms))
            more = frame.msg_type == MSG_SENSOR
            if free_running:
                s2c.append((data, t_arrive))
                horizon = float(plant.sim_time_ms(plant.k + 1)) if more else math.inf
                while s2c and s2c[0][1] <= horizon:
                    data, t_arrive = s2c.popleft()
                    reply = peer.exchange(data)
                    if reply is not None:
                        c2s.append(boundary.inbound(reply, t_arrive))
                while c2s and c2s[0][1] <= horizon:
                    plant.hold(c2s.popleft()[0])
            else:
                reply = peer.exchange(data)
                if reply is not None:
                    plant.hold(boundary.inbound(reply, t_arrive)[0])
            if not more:
                return
            frame = plant.tick()
    except RunFault as fault:
        if fault.kind == PROTOCOL:
            with suppress(RunFault):  # the peer may be gone already
                peer.exchange(encode_frame(plant.gap_fault()))
        raise
    finally:
        peer.close()


class ControllerPeer:
    """The controller behind the full codec path: plant frame bytes in, reply
    bytes out. drive calls it in-process; SocketEndpoint.serve feeds it from a
    socket."""

    def __init__(self, n: int, sink=None):
        self.driver = ControllerDriver(n, sink)

    def exchange(self, data: bytes) -> bytes | None:
        try:
            reply = self.driver.on_frame(decode_frame(data))
        except FrameError:
            reply = self.driver.on_bad_frame()
        return None if reply is None else encode_frame(reply)

    def close(self) -> None:
        """Nothing to release; the driver stays readable."""


class SocketEndpoint:
    """Blocking frame endpoint over a connected SOCK_SEQPACKET socket, one
    frame per message: the plant's peer (exchange) or the controller's end of
    the wire (serve).

    A read that waits SOCKET_TIMEOUT_S for a message that never comes raises
    a PROTOCOL RunFault.
    """

    def __init__(self, conn: socket.socket):
        if conn.type != socket.SOCK_SEQPACKET:
            raise ValueError(f"a frame endpoint needs a SOCK_SEQPACKET socket, got {conn.type!r}")
        conn.settimeout(SOCKET_TIMEOUT_S)
        self.conn = conn

    def exchange(self, data: bytes) -> bytes | None:
        """Send a plant frame; return the controller's reply, if one comes.

        The controller answers every frame but an intact END or FAULT. A
        connection that closes before the reply is a protocol fault.
        """
        try:
            self.conn.sendall(data)
            self._sent()
            if len(data) > 5 and data[5] != MSG_SENSOR:
                try:
                    if decode_frame(data).msg_type in (MSG_END, MSG_FAULT):
                        return None
                except FrameError:
                    pass
            return self.recv_bytes()
        except (EOFError, ConnectionError) as exc:
            raise RunFault(PROTOCOL, f"controller connection closed: {exc}") from exc

    def recv_bytes(self) -> bytes:
        """The next message, whole; EOFError once the peer has closed. An
        empty message reads the same as a close."""
        try:
            data = self.conn.recv(RECV_MAX)
        except TimeoutError:
            raise RunFault(PROTOCOL, f"peer sent nothing for {self.conn.gettimeout()} s") from None
        if not data:
            raise EOFError("connection closed")
        return data

    def answer(self, peer: ControllerPeer) -> None:
        """The controller's end: read one frame and send the peer's reply, if any."""
        reply = peer.exchange(self.recv_bytes())
        if reply is not None:
            self.conn.sendall(reply)

    def serve(self, peer: ControllerPeer) -> None:
        """Answer each frame until the session ends (END, FAULT or a sequence
        gap) or the plant disconnects. With a sink, the log's last, partial
        block stays in peer.driver.log."""
        while not peer.driver.done:
            try:
                self.answer(peer)
            except EOFError:
                return

    def _sent(self) -> None:
        """Called between a plant frame's send and its reply's read; a
        controller served elsewhere answers on its own."""

    def close(self) -> None:
        try:
            self.conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.conn.close()


class SocketLink(SocketEndpoint):
    """The plant's end of a socket pair whose other end serves the controller
    in the session's own thread: once a plant frame is sent, the controller's
    end answers it (SocketEndpoint.answer) before the plant reads the reply.
    The bytes cross the socket both ways as with a remote controller, and
    whatever the controller raises (say, an invariant breach found by its
    log's sink) is raised by the session as it is. Once the controller's
    session is over its end closes, as a served controller's would.
    """

    def __init__(self, peer: ControllerPeer):
        plant_end, controller_end = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        super().__init__(plant_end)
        self.controller = SocketEndpoint(controller_end)
        self.peer = peer

    def _sent(self) -> None:
        self.controller.answer(self.peer)
        if self.peer.driver.done:
            self.controller.close()

    def close(self) -> None:
        super().close()
        self.controller.close()


def _run(series: PowerSeries, cfg: ScenarioConfig, corrupt_s2c, free_running: bool, over_socket: bool) -> SessionResult:
    """Build one session on SESSION_SINKS and drive it, the controller in this thread or behind a socket."""
    sinks = SESSION_SINKS.get()
    plant = PlantDriver(series, cfg, sinks.plant)
    peer = ControllerPeer(cfg.n_window, sinks.controller)
    boundary = PlantBoundary(cfg, series.rated_power_w, corrupt_s2c=corrupt_s2c, sink=sinks.frames)
    drive(plant, boundary, SocketLink(peer) if over_socket else peer, free_running)
    return SessionResult(plant, peer.driver, boundary.log)


def run_lockstep_inproc(series: PowerSeries, cfg: ScenarioConfig, corrupt_s2c=None) -> SessionResult:
    """Lockstep session in one thread, through the full codec path."""
    return _run(series, cfg, corrupt_s2c, free_running=False, over_socket=False)


def run_free_running(series: PowerSeries, cfg: ScenarioConfig, corrupt_s2c=None) -> SessionResult:
    """Free-running session in one thread: each tick integrates under the last
    setpoint delivered by the tick's sample time (zero-order hold)."""
    return _run(series, cfg, corrupt_s2c, free_running=True, over_socket=False)


def run_lockstep_socket(series: PowerSeries, cfg: ScenarioConfig, corrupt_s2c=None) -> SessionResult:
    """Lockstep session with the controller served over a socket (SocketLink)."""
    return _run(series, cfg, corrupt_s2c, free_running=False, over_socket=True)


def run_session(series: PowerSeries, cfg: ScenarioConfig, transport: str = "inproc") -> SessionResult:
    """Run the scenario's session mode over transport."""
    free_running = cfg.transport.mode == "free_running"
    if transport == "inproc":
        return (run_free_running if free_running else run_lockstep_inproc)(series, cfg)
    if transport == "socket":
        return _run(series, cfg, None, free_running, over_socket=True)
    raise ValueError(f"unknown transport {transport!r} (expected one of {TRANSPORTS})")
