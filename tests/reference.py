"""Reference implementations of the per-step hot path, kept as they were
before the hot path was rewritten for speed (frozen dataclass frames, header
and payload packed apart, a BatteryState per step, a numpy ring buffer), and
the per-point warm-up count that ramp.warmup_skip_count replaced with a
closed form.

tests/test_differential.py checks the package against these bitwise. They
share the package's error classes and parameter types, so an error is the
same error only if it is the same class (and, for a RunFault, the same kind).
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from pvsmooth.config import SUPPLY_HARD_LIMIT_A, BatteryParams
from pvsmooth.frames import (
    CRC_LEN,
    HEADER_LEN,
    MAGIC,
    MSG_NAMES,
    PAYLOAD_COUNTS,
    VERSION,
    BadCrc,
    BadMagic,
    BadVersion,
    FrameError,
    FrameTruncated,
    PayloadMismatch,
    UnknownMessageType,
)
from pvsmooth.plant import INVARIANT, RunFault

_HEADER = struct.Struct("<4sBBIQH")


@dataclass(frozen=True)
class BusFrame:
    """One decoded bus message."""

    msg_type: int
    seq: int
    sim_time_ms: int
    values: tuple[float, ...] = ()

    @property
    def type_name(self) -> str:
        return MSG_NAMES.get(self.msg_type, f"0x{self.msg_type:02x}")


def encode_frame(frame: BusFrame) -> bytes:
    """Serialize to the wire layout. Deterministic: equal frames, equal bytes."""
    expected = PAYLOAD_COUNTS.get(frame.msg_type)
    if expected is None:
        raise UnknownMessageType(f"cannot encode msg_type 0x{frame.msg_type:02x}")
    if len(frame.values) != expected:
        raise PayloadMismatch(
            f"{frame.type_name} carries {expected} values, got {len(frame.values)}"
        )
    if not 0 <= frame.seq <= 0xFFFFFFFF:
        raise FrameError(f"seq {frame.seq} outside u32 range")
    if not 0 <= frame.sim_time_ms <= 0xFFFFFFFFFFFFFFFF:
        raise FrameError(f"sim_time_ms {frame.sim_time_ms} outside u64 range")
    payload = struct.pack(f"<{len(frame.values)}d", *frame.values)
    head = _HEADER.pack(MAGIC, VERSION, frame.msg_type, frame.seq, frame.sim_time_ms, len(payload))
    body = head + payload
    return body + struct.pack("<I", zlib.crc32(body))


def decode_frame(data: bytes) -> BusFrame:
    """Parse one frame from an exact byte buffer; inverse of encode_frame."""
    if len(data) < HEADER_LEN:
        raise FrameTruncated(f"need {HEADER_LEN} header bytes, got {len(data)}")
    magic, version, msg_type, seq, sim_time_ms, payload_len = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersion(f"unsupported version 0x{version:02x}")
    total = HEADER_LEN + payload_len + CRC_LEN
    if len(data) < total:
        raise FrameTruncated(f"declared {total} bytes, got {len(data)}")
    if len(data) > total:
        raise FrameTruncated(f"declared {total} bytes, got {len(data)} (trailing bytes)")
    (crc_stored,) = struct.unpack_from("<I", data, total - CRC_LEN)
    crc_actual = zlib.crc32(data[: total - CRC_LEN])
    if crc_stored != crc_actual:
        raise BadCrc(f"crc mismatch: stored 0x{crc_stored:08x}, computed 0x{crc_actual:08x}")
    expected = PAYLOAD_COUNTS.get(msg_type)
    if expected is None:
        raise UnknownMessageType(f"unknown msg_type 0x{msg_type:02x}")
    if payload_len != expected * 8:
        raise PayloadMismatch(
            f"{MSG_NAMES[msg_type]} payload must be {expected * 8} bytes, got {payload_len}"
        )
    values = struct.unpack_from(f"<{expected}d", data, HEADER_LEN)
    return BusFrame(msg_type, seq, sim_time_ms, tuple(values))


@dataclass(frozen=True)
class BatteryState:
    """Battery snapshot after a step."""

    soc: float
    v_terminal_v: float
    i_applied_a: float = 0.0
    clamp_events: int = 0


def open_circuit_voltage(params: BatteryParams, soc: float) -> float:
    if params.voltage_model == "linear_ocv":
        return params.v_min_v + (params.v_max_v - params.v_min_v) * soc
    return params.nominal_voltage_v


def initial_battery_state(params: BatteryParams) -> BatteryState:
    return BatteryState(
        soc=params.soc_init,
        v_terminal_v=open_circuit_voltage(params, params.soc_init),
    )


def supply_apply(i_request_a: float, supply_limit_a: float = SUPPLY_HARD_LIMIT_A) -> float:
    """Clamp a current request to the DC supply's capability.

    The supply is the series element between controller and battery; its
    +/-55 A hardware ceiling applies even if the configured limit is looser.
    """
    limit = min(supply_limit_a, SUPPLY_HARD_LIMIT_A)
    return max(-limit, min(limit, i_request_a))


def battery_step(
    state: BatteryState, params: BatteryParams, i_request_a: float, dt_s: float
) -> BatteryState:
    """Advance the battery by one interval under a requested current.

    Raises an INVARIANT RunFault on a non-finite request, leaving the state unchanged.
    """
    if not math.isfinite(i_request_a):
        raise RunFault(INVARIANT, f"non-finite current request {i_request_a}")
    if not dt_s > 0:
        raise RunFault(INVARIANT, f"dt_s must be > 0, got {dt_s}")

    clamp_events = state.clamp_events
    i = max(-params.current_limit_a, min(params.current_limit_a, i_request_a))

    def delta_soc(current: float) -> float:
        eta = params.coulombic_efficiency if current >= 0 else 1.0 / params.coulombic_efficiency
        return eta * current * dt_s / (3600.0 * params.capacity_ah)

    soc_new = state.soc + delta_soc(i)
    if params.enforce_soc_limits and (
        (i > 0 and soc_new > params.soc_max) or (i < 0 and soc_new < params.soc_min)
    ):
        # Block the offending direction entirely; the other stays available.
        i = 0.0
        soc_new = state.soc
        clamp_events += 1
    if soc_new < 0.0 or soc_new > 1.0:
        soc_new = max(0.0, min(1.0, soc_new))
        clamp_events += 1

    v_terminal = open_circuit_voltage(params, soc_new) + i * params.internal_resistance_ohm
    return BatteryState(
        soc=soc_new, v_terminal_v=v_terminal, i_applied_a=i, clamp_events=clamp_events
    )


class ControllerOutput(NamedTuple):
    """One control step's result."""

    p_hat_w: float
    p_batt_w: float
    i_set_a: float
    fault: bool = False


@dataclass
class ControllerState:
    """Ring buffer plus bookkeeping; confined to one execution context."""

    n: int
    p_buf: np.ndarray = field(init=False)
    k: int = field(init=False, default=1)  # 1-based index of the next sample
    running_sum: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"window length must be >= 1, got {self.n}")
        self.p_buf = np.zeros(self.n, dtype=np.float64)


class SmoothingController:
    """Stateful step-by-step smoothing controller.

    The buffer mean is maintained as a running sum (O(1) per step) with a
    full recomputation every N steps to bound floating-point drift.
    """

    def __init__(self, n: int):
        self.state = ControllerState(n=n)

    def _advance(self, p_pv_w: float) -> float:
        """Insert one sample and return the new buffer mean."""
        st = self.state
        pos = (st.k - 1) % st.n
        old = float(st.p_buf[pos])
        st.p_buf[pos] = p_pv_w
        st.running_sum = st.running_sum - old + p_pv_w
        if st.k % st.n == 0:
            st.running_sum = math.fsum(st.p_buf)
        p_hat = st.running_sum / st.n
        st.k += 1
        return p_hat

    def step(self, p_pv_w: float, v_batt_v: float) -> ControllerOutput:
        """Process one sensor reading and produce one setpoint.

        A non-positive or non-finite battery voltage is a sensing fault: the
        PV sample still enters the buffer, but the emitted setpoint is a safe
        zero current and the step is flagged.
        """
        p_pv_w = float(p_pv_w)
        v_batt_v = float(v_batt_v)
        if not math.isfinite(p_pv_w):
            raise ValueError(f"p_pv_w must be finite, got {p_pv_w}")
        p_hat = self._advance(p_pv_w)
        p_batt = p_pv_w - p_hat
        if not (math.isfinite(v_batt_v) and v_batt_v > 0.0):
            return ControllerOutput(p_hat, p_batt, 0.0, fault=True)
        return ControllerOutput(p_hat, p_batt, p_batt / v_batt_v)

    def smooth_array(self, p_pv_w: np.ndarray) -> np.ndarray:
        """Buffer means for a whole input array, via the same per-step arithmetic."""
        out = np.empty(len(p_pv_w), dtype=np.float64)
        advance = self._advance
        for i, p in enumerate(p_pv_w):
            out[i] = advance(float(p))
        return out


def warmup_skip_count(
    n_rates: int, warmup_s: float, sample_period_s: float, rr_interval_s: float, *, sliding: bool = False
) -> int:
    """Evaluation points whose earlier endpoint falls inside the warm-up span.

    A point at sample index i compares P[i] with P[i - stride]; it is
    excluded when i - stride lands before the first post-warm-up sample.
    """
    if warmup_s <= 0:
        return 0
    stride = round(rr_interval_s / sample_period_s)
    n_warm = int(np.ceil(warmup_s / sample_period_s - 1e-9))
    skipped = 0
    for j in range(n_rates):
        i = (stride + j) if sliding else (j + 1) * stride
        if i - stride < n_warm:
            skipped += 1
        else:
            break
    return skipped
