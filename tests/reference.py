"""Reference implementations, kept as they were before the package rewrote
them:

- the per-step hot path before it was rewritten for speed (frozen dataclass
  frames, header and payload packed apart, a BatteryState per step, a numpy
  ring buffer);
- the per-point warm-up count that ramp.warmup_skip_count replaced with a
  closed form;
- the smoothed ramp reports before a run kept only p_hat's evaluation
  points: ramp_report of the whole live p_hat on the input's grid;
- CSV ingest before its row stage became one csv.reader pass into float
  arrays (csv.DictReader, float lists). Here a row of an ISO-8601 file that
  lacks its time cell still crashes with AttributeError;
- write_series_csv before it streamed its lines in chunks;
- the CSV logs' and the hex dump's formatters before their floats were
  formatted a block at a time (once per distinct value, then in one orjson
  call): one repr per value;
- decode_frame before its per-type fast path, when one whole-frame layout
  was picked by the frame's length.

tests/test_differential.py checks the package against these bitwise. They
share the package's error classes and parameter types, so an error is the
same error only if it is the same class (and, for a RunFault, the same kind).
"""

from __future__ import annotations

import csv
import math
import struct
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from pvsmooth import frames
from pvsmooth.bus import DIRECTION_NAMES, SessionLog
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
from pvsmooth.ingest import RESAMPLE_MODES, TIMESTAMP_FORMATS, IngestError, IngestResult, IngestSpec
from pvsmooth.plant import INVARIANT, RunFault
from pvsmooth.ramp import RampReport, ramp_report
from pvsmooth.series import PowerSeries
from pvsmooth.util import FORMAT_ROWS, Records, atomic_write_text

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


# decode_frame as it was before its per-type fast path: one whole-frame
# layout per message type, picked by the frame's length
_WHOLE_LAYOUTS = {t: struct.Struct(f"<4sBBIQH{n}d") for t, n in PAYLOAD_COUNTS.items()}
_WHOLE_LENS = {t: s.size + CRC_LEN for t, s in _WHOLE_LAYOUTS.items()}
_WHOLE_UNPACKERS = {_WHOLE_LENS[t]: s.unpack_from for t, s in _WHOLE_LAYOUTS.items()}


def decode_frame_by_length(data: bytes) -> frames.BusFrame:
    """The package's decode_frame before its per-type fast path."""
    n = len(data)
    unpack = _WHOLE_UNPACKERS.get(n)
    if unpack is not None:
        fields = unpack(data)
        if (
            fields[0] == MAGIC
            and fields[1] == VERSION
            and fields[5] == n - HEADER_LEN - CRC_LEN
            and zlib.crc32(data) == 0x2144DF1C
            and _WHOLE_LENS.get(fields[2]) == n
        ):
            return tuple.__new__(frames.BusFrame, (fields[2], fields[3], fields[4], fields[6:]))
    if n < HEADER_LEN:
        raise FrameTruncated(f"need {HEADER_LEN} header bytes, got {n}")
    magic, version, msg_type, seq, sim_time_ms, payload_len = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if version != VERSION:
        raise BadVersion(f"unsupported version 0x{version:02x}")
    total = HEADER_LEN + payload_len + CRC_LEN
    if n < total:
        raise FrameTruncated(f"declared {total} bytes, got {n}")
    if n > total:
        raise FrameTruncated(f"declared {total} bytes, got {n} (trailing bytes)")
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
    return frames.BusFrame(msg_type, seq, sim_time_ms, tuple(values))


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


def smoothed_reports(p_hat: np.ndarray, series: PowerSeries, cfg) -> tuple[RampReport, RampReport]:
    """The ramp reports of the whole live p_hat as a trace on the input's
    grid, whole and past the warm-up."""
    smoothed = PowerSeries(
        samples=p_hat,
        sample_period_s=series.sample_period_s,
        rated_power_w=series.rated_power_w,
        start_time_s=series.start_time_s,
        _skip_validation=True,  # quantized inputs may nudge p_hat past rated
    )
    limit = cfg.ramp_limit_pct_per_min
    return (
        ramp_report(smoothed, cfg.rr_interval_s, limit),
        ramp_report(smoothed, cfg.rr_interval_s, limit, warmup_s=cfg.window_s),
    )


def _parse_time(raw: str, fmt: str) -> float:
    if fmt == "epoch_s":
        return float(raw)
    stamp = raw.strip().replace("Z", "+00:00")
    dt = datetime.fromisoformat(stamp)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def ingest_csv(spec: IngestSpec) -> IngestResult:
    """Read a PV trace per the spec; collects every row error before failing."""
    if spec.timestamp_format not in TIMESTAMP_FORMATS:
        raise IngestError([f"timestamp_format {spec.timestamp_format!r} not one of {TIMESTAMP_FORMATS}"])
    if spec.resample not in RESAMPLE_MODES:
        raise IngestError([f"resample {spec.resample!r} not one of {RESAMPLE_MODES}"])
    if spec.resample == "zero_order_hold" and not (spec.sample_period_s and spec.sample_period_s > 0):
        raise IngestError(["sample_period_s: required (> 0) when resampling"])

    path = Path(spec.path)
    if not path.exists():
        raise IngestError([f"{path}: file not found"])
    if path.is_dir():
        raise IngestError([f"{path}: is a directory, not a CSV file"])

    times: list[float] = []
    powers: list[float] = []
    errors: list[str] = []
    clamped = 0

    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh, delimiter=spec.delimiter)
            if reader.fieldnames is None:
                raise IngestError([f"{path}: empty file"])
            missing = {spec.time_column, spec.power_column} - set(reader.fieldnames)
            if missing:
                raise IngestError(
                    [f"{path}: missing column {c!r} (found {reader.fieldnames})" for c in sorted(missing)]
                )
            for row in reader:
                line = reader.line_num
                try:
                    t = _parse_time(row[spec.time_column], spec.timestamp_format)
                except (TypeError, ValueError):
                    errors.append(f"line {line}: unparseable time {row[spec.time_column]!r}")
                    continue
                try:
                    p = float(row[spec.power_column])
                except (TypeError, ValueError):
                    errors.append(f"line {line}: unparseable power {row[spec.power_column]!r}")
                    continue
                if not np.isfinite(p):
                    errors.append(f"line {line}: non-finite power {p}")
                    continue
                if p < 0.0:
                    if spec.clamp_negative:
                        p = 0.0
                        clamped += 1
                    else:
                        errors.append(f"line {line}: negative power {p} (enable clamp_negative to zero it)")
                        continue
                times.append(t)
                powers.append(p)
    except UnicodeDecodeError as exc:
        raise IngestError([f"{path}: not UTF-8 text ({exc})"]) from exc

    if errors:
        raise IngestError(errors)
    if not times:
        raise IngestError([f"{path}: no data rows"])

    t_arr = np.asarray(times, dtype=np.float64)
    p_arr = np.asarray(powers, dtype=np.float64)
    rows_read = len(times)
    gaps_filled = 0

    if spec.resample == "none":
        dts = np.diff(t_arr)
        if len(dts) and (dts <= 0).any():
            bad = int(np.argmax(dts <= 0))
            raise IngestError(
                [f"non-monotone timestamps at row {bad + 2} (t={t_arr[bad + 1]}); enable resampling"]
            )
        if len(dts):
            period = float(dts[0])
            if not np.allclose(dts, period, rtol=1e-6, atol=0.0):
                raise IngestError(["non-uniform sample spacing; enable resampling"])
        else:
            period = spec.sample_period_s or 1.0
        if spec.sample_period_s and len(dts) and abs(period - spec.sample_period_s) > 1e-6 * spec.sample_period_s:
            raise IngestError(
                [f"data period {period} s does not match requested {spec.sample_period_s} s"]
            )
        grid_p = p_arr
        start = float(t_arr[0])
    else:
        order = np.argsort(t_arr, kind="stable")
        t_arr, p_arr = t_arr[order], p_arr[order]
        if (np.diff(t_arr) == 0.0).any():
            dup = int(np.argmax(np.diff(t_arr) == 0.0))
            raise IngestError([f"duplicate timestamp t={t_arr[dup]}"])
        period = float(spec.sample_period_s)  # validated above
        start = float(t_arr[0])
        n = int(np.floor((t_arr[-1] - start) / period + 1e-9)) + 1
        grid_t = start + np.arange(n) * period
        idx = np.searchsorted(t_arr, grid_t + 1e-9 * period, side="right") - 1
        grid_p = p_arr[idx]
        # a grid point is "filled" when the held observation is older than it
        gaps_filled = int(np.count_nonzero(np.abs(t_arr[idx] - grid_t) > 1e-6 * period))

    rated = spec.rated_power_w if spec.rated_power_w is not None else float(grid_p.max())
    if not rated > 0:
        raise IngestError(["cannot infer a positive rated power (all samples zero?); set rated_power_w"])

    series = PowerSeries(
        samples=grid_p, sample_period_s=period, rated_power_w=rated, start_time_s=start
    )
    return IngestResult(series=series, rows_read=rows_read, clamped_count=clamped, gaps_filled=gaps_filled)


def write_series_csv(series: PowerSeries, path: str | Path) -> None:
    """Canonical two-column form: epoch seconds and watts, full precision."""
    lines = ["t_s,power_w"]
    t = series.times_s()
    for i in range(len(series)):
        lines.append(f"{float(t[i])!r},{float(series.samples[i])!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# --- log formatters: one repr per value ----------------------------------------


def csv_chunks(table: Records) -> Iterator[str]:
    """Records.csv_chunks with every cell formatted by its own repr."""
    if table.start == 0:
        yield ",".join(table.names) + "\n"
    cols = [getattr(table, name).tolist() for name in table.names]
    for i in range(0, len(table), FORMAT_ROWS):
        cells = [map(repr, col[i : i + FORMAT_ROWS]) for col in cols]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def tagged_hex(log: SessionLog) -> Iterator[tuple[str, str]]:
    """SessionLog.tagged_hex with a repr per time and an f-string per tag."""
    hex_wire = log.wire.hex()
    start = 0
    f = log.frames
    names = ("direction", "seq", "t_send_ms", "t_deliver_ms", "wire_end")
    for d, seq, t_send, t_deliver, end in zip(*(getattr(f, name).tolist() for name in names)):
        tag = f"{DIRECTION_NAMES[d]} seq={seq} send={t_send!r} recv={t_deliver!r}"
        end *= 2
        yield tag, hex_wire[start:end]
        start = end
