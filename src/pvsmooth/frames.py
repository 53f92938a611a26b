"""Bit-exact framed message codec for the plant/controller bus.

Wire layout (all integers little-endian, all floats IEEE-754 binary64 LE):

    offset  size  field
    0       4     magic 0x48 0x45 0x53 0x42 ("HESB")
    4       1     version (0x01)
    5       1     msg_type (0x01 SENSOR, 0x02 SETPOINT, 0x03 END, 0x04 FAULT)
    6       4     seq, u32
    10      8     sim_time_ms, u64
    18      2     payload_len, u16 (bytes)
    20      var   payload: float64 values
                    SENSOR   [p_pv_w, v_batt_v]   16 bytes
                    SETPOINT [i_set_a]             8 bytes
                    END/FAULT (empty)              0 bytes
    20+var  4     crc32 over ALL preceding bytes (IEEE 802.3 polynomial,
                  reflected, init 0xFFFFFFFF, final xor 0xFFFFFFFF; this is
                  exactly zlib.crc32)

Total frame length = 20 + payload_len + 4. Decode errors are distinct and
checked in a fixed order: truncation, magic, version, declared length,
crc, message type, payload shape.
"""

from __future__ import annotations

import struct
import zlib
from collections.abc import Iterable
from typing import NamedTuple

from .util import AtomicWriter, chunked

MAGIC = b"HESB"
VERSION = 0x01
HEADER_LEN = 20
CRC_LEN = 4

MSG_SENSOR = 0x01
MSG_SETPOINT = 0x02
MSG_END = 0x03
MSG_FAULT = 0x04

MSG_NAMES = {MSG_SENSOR: "SENSOR", MSG_SETPOINT: "SETPOINT", MSG_END: "END", MSG_FAULT: "FAULT"}
PAYLOAD_COUNTS = {MSG_SENSOR: 2, MSG_SETPOINT: 1, MSG_END: 0, MSG_FAULT: 0}

_HEADER = struct.Struct("<4sBBIQH")

# One whole-frame layout (header and payload) per message type, its first
# six bytes (magic, version, type) taken as one field, and the same layout
# with the crc after it, which reads a frame of exactly its length. A frame's
# last 4 bytes are its crc, so zlib.crc32 of an intact frame is the residue.
_LAYOUTS = {t: struct.Struct(f"<6sIQH{n}d") for t, n in PAYLOAD_COUNTS.items()}
_PREFIXES = {t: MAGIC + bytes((VERSION, t)) for t in PAYLOAD_COUNTS}
_SENSOR_PREFIX, _SETPOINT_PREFIX = _PREFIXES[MSG_SENSOR], _PREFIXES[MSG_SETPOINT]
_pack_sensor, _pack_setpoint = (_LAYOUTS[t].pack for t in (MSG_SENSOR, MSG_SETPOINT))
_unpack_sensor, _unpack_setpoint = (struct.Struct(_LAYOUTS[t].format + "I").unpack for t in (MSG_SENSOR, MSG_SETPOINT))
_SENSOR_LEN, _SETPOINT_LEN = (_LAYOUTS[t].size + CRC_LEN for t in (MSG_SENSOR, MSG_SETPOINT))
_CRC_RESIDUE = 0x2144DF1C
_crc32 = zlib.crc32
_pack_crc = struct.Struct("<I").pack
_new_frame = tuple.__new__  # a BusFrame from one tuple, skipping NamedTuple's slower __new__


class FrameError(ValueError):
    """Base class for every frame encode/decode failure."""


class FrameTruncated(FrameError):
    pass


class BadMagic(FrameError):
    pass


class BadVersion(FrameError):
    pass


class BadCrc(FrameError):
    pass


class UnknownMessageType(FrameError):
    pass


class PayloadMismatch(FrameError):
    pass


class BusFrame(NamedTuple):
    """One decoded bus message."""

    msg_type: int
    seq: int
    sim_time_ms: int
    values: tuple[float, ...] = ()

    @property
    def type_name(self) -> str:
        return MSG_NAMES.get(self.msg_type, f"0x{self.msg_type:02x}")


def sensor_frame(seq: int, sim_time_ms: int, p_pv_w: float, v_batt_v: float) -> BusFrame:
    return _new_frame(BusFrame, (MSG_SENSOR, seq, sim_time_ms, (float(p_pv_w), float(v_batt_v))))


def setpoint_frame(seq: int, sim_time_ms: int, i_set_a: float) -> BusFrame:
    return _new_frame(BusFrame, (MSG_SETPOINT, seq, sim_time_ms, (float(i_set_a),)))


def end_frame(seq: int, sim_time_ms: int) -> BusFrame:
    return _new_frame(BusFrame, (MSG_END, seq, sim_time_ms, ()))


def fault_frame(seq: int, sim_time_ms: int) -> BusFrame:
    return _new_frame(BusFrame, (MSG_FAULT, seq, sim_time_ms, ()))


# The per-type codec of the frames of every step, without a BusFrame;
# encode_frame and decode_frame are built on it. A decoder returns the
# frame's fields from seq on, or None for any other bytes (decode_frame says
# what they are).


def encode_sensor(seq: int, sim_time_ms: int, p_pv_w: float, v_batt_v: float) -> bytes:
    body = _pack_sensor(_SENSOR_PREFIX, seq, sim_time_ms, 16, p_pv_w, v_batt_v)
    return body + _pack_crc(_crc32(body))


def encode_setpoint(seq: int, sim_time_ms: int, i_set_a: float) -> bytes:
    body = _pack_setpoint(_SETPOINT_PREFIX, seq, sim_time_ms, 8, i_set_a)
    return body + _pack_crc(_crc32(body))


def decode_sensor(data: bytes) -> tuple[int, int, float, float] | None:
    """(seq, sim_time_ms, p_pv_w, v_batt_v) of an intact SENSOR frame."""
    if len(data) == _SENSOR_LEN:
        prefix, seq, sim_time_ms, payload_len, p_pv_w, v_batt_v, _ = _unpack_sensor(data)
        if prefix == _SENSOR_PREFIX and payload_len == 16 and _crc32(data) == _CRC_RESIDUE:
            return seq, sim_time_ms, p_pv_w, v_batt_v
    return None


def decode_setpoint(data: bytes) -> tuple[int, int, float] | None:
    """(seq, sim_time_ms, i_set_a) of an intact SETPOINT frame."""
    if len(data) == _SETPOINT_LEN:
        prefix, seq, sim_time_ms, payload_len, i_set_a, _ = _unpack_setpoint(data)
        if prefix == _SETPOINT_PREFIX and payload_len == 8 and _crc32(data) == _CRC_RESIDUE:
            return seq, sim_time_ms, i_set_a
    return None


def encode_frame(frame: BusFrame) -> bytes:
    """Serialize to the wire layout. Deterministic: equal frames, equal bytes."""
    msg_type, seq, sim_time_ms, values = frame
    expected = PAYLOAD_COUNTS.get(msg_type)
    if expected is None:
        raise UnknownMessageType(f"cannot encode msg_type 0x{msg_type:02x}")
    try:
        if len(values) != expected:
            raise PayloadMismatch(f"{frame.type_name} carries {expected} values, got {len(values)}")
        if msg_type == MSG_SENSOR:
            return encode_sensor(seq, sim_time_ms, *values)
        if msg_type == MSG_SETPOINT:
            return encode_setpoint(seq, sim_time_ms, *values)
        body = _LAYOUTS[msg_type].pack(_PREFIXES[msg_type], seq, sim_time_ms, 0)  # END, FAULT
    except struct.error:
        # name the field at fault, checked in a fixed order
        if not 0 <= seq <= 0xFFFFFFFF:
            raise FrameError(f"seq {seq} outside u32 range") from None
        if not 0 <= sim_time_ms <= 0xFFFFFFFFFFFFFFFF:
            raise FrameError(f"sim_time_ms {sim_time_ms} outside u64 range") from None
        raise
    return body + _pack_crc(_crc32(body))


def decode_frame(data: bytes) -> BusFrame:
    """Parse one frame from an exact byte buffer; inverse of encode_frame.
    An intact SENSOR or SETPOINT frame passes all checks in one go; anything
    else goes through them in the documented order."""
    for msg_type, decode in ((MSG_SENSOR, decode_sensor), (MSG_SETPOINT, decode_setpoint)):
        fields = decode(data)
        if fields is not None:
            return _new_frame(BusFrame, (msg_type, fields[0], fields[1], fields[2:]))
    n = len(data)
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
    crc_actual = _crc32(data[: total - CRC_LEN])
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


# ---------------------------------------------------------------------------
# Hex-dump logs for conformance checks
# ---------------------------------------------------------------------------


def write_hexdump(tagged_hex: Iterable[tuple[str, str]], out: AtomicWriter) -> None:
    """Append one `tag hex` line per (tag, frame bytes as hex) pair; stable
    text form of a frame log."""
    out.write(chunked(f"{tag} {hex_text}\n" for tag, hex_text in tagged_hex))

