"""Bus sessions: one session loop, its peers, quantization, latency, frame logs.

The plant-side bus boundary is where physics meets the wire:

  * outbound sensor values are quantized (ADC emulation) before encoding,
  * inbound setpoint values are quantized (DAC emulation) after decoding,
  * every frame is logged with its raw bytes plus send/delivery times.

One builder, _run, makes every session and drive runs it; the controller
sits behind a peer, called directly or served over a message socket pair
(SocketLink: AF_UNIX SOCK_SEQPACKET, one frame per message) with the same
bytes on the wire, in the session's own thread either way. The session
mode is only a delivery rule, and either mode runs on either transport. In lockstep mode latency and jitter shift recorded timestamps
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
    FrameError,
    decode_frame,
    decode_setpoint,
    encode_frame,
    encode_sensor,
    end_frame,
    fault_frame,
    hexdump,
)
from .plant import PROTOCOL, PlantDriver, RunFault, Setpoint
from .series import PowerSeries
from .util import Records, number_texts

# frame directions, as coded in the frame log, and the starts of their hex-dump tags
S2C = 0  # plant sensor -> controller
C2S = 1  # controller setpoint -> plant
_TAG_PREFIXES = np.array([b"s2c seq=", b"c2s seq="], dtype=object)
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
        self.jittered = jitter_ms > 0.0  # without jitter every delay is latency_ms and every draw 0
        self._draws = _jitter_draws(np.random.default_rng(seed), jitter_ms) if self.jittered else repeat(0.0)
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

    def hexdump(self) -> bytes:
        """The hex dump of the frames held (frames.hexdump), tagged with their
        direction, seq and times: each column's texts in one number_texts call."""
        frames = self.frames.view()
        tags = (_TAG_PREFIXES[frames["direction"]].tolist(), number_texts(frames["seq"]), b" send=",
                number_texts(frames["t_send_ms"]), b" recv=", number_texts(frames["t_deliver_ms"]))
        return hexdump(tags, self.wire, frames["wire_end"].tolist())


class PlantBoundary:
    """Plant-side bus boundary: quantization, codec, delays, frame log.

    drive sends and logs the frames; outbound and inbound code the ones
    that it does not: END, any frame through the converters (ADC on the
    sensor values, DAC on the setpoint current), and a reply that is not an
    intact setpoint.

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
        self.corrupt_s2c = corrupt_s2c

    def outbound(self, seq: int, sim_time_ms: int, p_pv_w: float | None, v_batt_v: float | None) -> tuple[bytes, int]:
        """(bytes, msg_type) of the frame for a plant reading: END if p_pv_w
        is None, else SENSOR with its values quantized (ADC)."""
        if p_pv_w is None:
            return encode_frame(end_frame(seq, sim_time_ms)), MSG_END
        q = self.quant
        if q is not None:
            p_pv_w, v_batt_v = quantize(p_pv_w, q.bits, q.power_range_w), quantize(v_batt_v, q.bits, q.voltage_range_v)
        return encode_sensor(seq, sim_time_ms, p_pv_w, v_batt_v), MSG_SENSOR

    def inbound(self, data: bytes, sent: int) -> tuple[Setpoint, int, int]:
        """(setpoint for the plant, seq, msg_type) of a controller reply, its
        current quantized (DAC), after `sent` outbound frames. An
        undecodable one is a PROTOCOL fault at the setpoint it stands for."""
        setpoint = decode_setpoint(data)
        if setpoint is None:
            try:
                frame = decode_frame(data)
            except FrameError as exc:  # the replies so far: every frame logged but the outbound ones
                seq = self.log.frames.start + len(self.log.frames) - sent + 1
                raise RunFault(PROTOCOL, f"undecodable reply in place of setpoint {seq}: {exc}", step=seq) from exc
            return frame, frame.seq, frame.msg_type
        seq, sim_time_ms, i_set_a = setpoint
        q = self.quant
        if q is not None:
            setpoint = seq, sim_time_ms, quantize(i_set_a, q.bits, q.current_range_a)
        return setpoint, seq, MSG_SETPOINT


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

    Each plant reading goes out once as a frame: encoded, delayed no earlier
    than the frame before it in its direction (FIFO), logged (a hand-off
    empties the wire and the records in place) and queued. Before each tick
    every queued frame due by the horizon is delivered: sensor frames to the
    peer, whose replies take the same steps, and setpoints to plant.hold.
    The horizon is the tick's sample time when free-running and infinite
    otherwise (lockstep, END), so a lockstep frame is delivered as it is
    sent. The boundary's outbound and inbound code the frames the plain
    paths do not. A PROTOCOL RunFault is reported to the peer with a FAULT
    frame before it propagates.
    """
    hold, apply_interval, sim_time_ms, exchange = plant.hold, plant.apply_interval, plant.sim_time_ms, peer.exchange
    outbound, inbound, corrupt = boundary.outbound, boundary.inbound, boundary.corrupt_s2c
    plain = boundary.quant is None  # no converter: readings and setpoints pass as they are
    delays, wire, frames = boundary.delays, boundary.log.wire, boundary.log.frames
    latency, next_delay = delays.latency_ms, delays.next_delay_ms if delays.jittered else None
    rows, pack_row, block_bytes, hand_off = frames.rows, frames.layout.pack, frames.block_bytes, frames.hand_off
    s2c: deque[tuple[bytes, float]] = deque()  # (frame, delivery time) sent and not yet delivered
    c2s: deque[tuple[Setpoint, float]] = deque()
    sent, last_s2c, last_c2s = 0, 0.0, 0.0  # frames sent; each direction's last delivery time
    reading = plant.first_reading
    i_held = 0.0  # the held setpoint's current; 0 A until the first
    try:
        while True:
            seq, t_ms, p_pv, v_batt = reading
            if plain and p_pv is not None:
                data, msg_type = encode_sensor(seq, t_ms, p_pv, v_batt), MSG_SENSOR
            else:
                data, msg_type = outbound(seq, t_ms, p_pv, v_batt)
            if corrupt is not None:
                data = corrupt(sent, data)
            sent += 1
            t_send = float(t_ms)
            t = t_send + latency if next_delay is None else t_send + next_delay()
            if last_s2c > t:
                t = last_s2c
            last_s2c = t
            wire += data
            rows += pack_row(S2C, seq, msg_type, t_send, t, delays.last_draw, len(wire))
            if len(rows) >= block_bytes:
                hand_off()
            s2c.append((data, t))
            horizon = float(sim_time_ms(seq)) if free_running and p_pv is not None else math.inf  # the next tick's
            while s2c and s2c[0][1] <= horizon:
                data, t_send = s2c.popleft()
                reply = exchange(data)
                if reply is None:
                    continue
                setpoint = decode_setpoint(reply)
                if plain and setpoint is not None:
                    reply_seq, msg_type = setpoint[0], MSG_SETPOINT
                else:
                    setpoint, reply_seq, msg_type = inbound(reply, sent)
                t = t_send + latency if next_delay is None else t_send + next_delay()
                if last_c2s > t:
                    t = last_c2s
                last_c2s = t
                wire += reply
                rows += pack_row(C2S, reply_seq, msg_type, t_send, t, delays.last_draw, len(wire))
                if len(rows) >= block_bytes:
                    hand_off()
                c2s.append((setpoint, t))
            while c2s and c2s[0][1] <= horizon:
                i_held = hold(c2s.popleft()[0])
            if p_pv is None:  # END
                return
            reading = apply_interval(i_held)
    except RunFault as fault:
        if fault.kind == PROTOCOL:  # FAULT carries the last reading's seq and time
            with suppress(RunFault):  # the peer may be gone already
                peer.exchange(encode_frame(fault_frame(*reading[:2])))
        raise
    finally:
        peer.close()


class ControllerPeer:
    """The controller behind the full codec path: plant frame bytes in, reply
    bytes out, through its driver's coroutine (ControllerDriver.replies).
    drive calls it in-process; SocketEndpoint.serve feeds it from a socket."""

    def __init__(self, n: int, sink=None):
        self.driver = ControllerDriver(n, sink)
        replies = self.driver.replies()
        next(replies)
        self._send = replies.send

    def exchange(self, data: bytes) -> bytes | None:
        return self._send(data)

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
