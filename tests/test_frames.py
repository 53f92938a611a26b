import struct
import zlib
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_hexdump
from pvsmooth.frames import (
    MAGIC,
    MSG_END,
    MSG_FAULT,
    MSG_SENSOR,
    MSG_SETPOINT,
    BadCrc,
    BadMagic,
    BadVersion,
    BusFrame,
    FrameError,
    FrameTruncated,
    PayloadMismatch,
    UnknownMessageType,
    decode_frame,
    encode_frame,
    end_frame,
    fault_frame,
    hexdump,
    sensor_frame,
    setpoint_frame,
)
from pvsmooth.util import AtomicWriter


def test_crc32_known_vector():
    assert zlib.crc32(b"123456789") == 0xCBF43926


def test_sensor_frame_is_40_bytes_and_round_trips():
    f = sensor_frame(1, 0, 0.0, 53.0)
    data = encode_frame(f)
    assert len(data) == 40
    assert decode_frame(data) == f


def test_end_frame_is_24_bytes():
    assert len(encode_frame(end_frame(7, 12345))) == 24


def test_setpoint_frame_is_32_bytes():
    assert len(encode_frame(setpoint_frame(3, 5000, -1.25))) == 32


def test_layout_fields():
    f = sensor_frame(0x01020304, 0x0506070809, 1.5, -2.5)
    data = encode_frame(f)
    assert data[:4] == MAGIC
    assert data[4] == 0x01  # version
    assert data[5] == MSG_SENSOR
    assert struct.unpack_from("<I", data, 6)[0] == 0x01020304
    assert struct.unpack_from("<Q", data, 10)[0] == 0x0506070809
    assert struct.unpack_from("<H", data, 18)[0] == 16
    assert struct.unpack_from("<2d", data, 20) == (1.5, -2.5)
    assert struct.unpack_from("<I", data, 36)[0] == zlib.crc32(data[:36])


def test_every_single_bit_flip_is_rejected():
    kinds = (sensor_frame(2, 5000, 1234.5678, 52.91), setpoint_frame(2, 5000, -3.25), end_frame(3, 10000), fault_frame(3, 10000))
    for frame in kinds:
        data = encode_frame(frame)
        for bit in range(len(data) * 8):
            corrupted = bytearray(data)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(FrameError):
                decode_frame(bytes(corrupted))


def test_empty_input_is_truncation():
    with pytest.raises(FrameTruncated):
        decode_frame(b"")


def test_short_header_is_truncation():
    with pytest.raises(FrameTruncated):
        decode_frame(b"HESB\x01\x01")


def test_declared_length_beyond_buffer_is_truncation():
    data = encode_frame(sensor_frame(1, 0, 1.0, 2.0))
    with pytest.raises(FrameTruncated):
        decode_frame(data[:-1])


def test_trailing_bytes_rejected():
    data = encode_frame(end_frame(1, 0))
    with pytest.raises(FrameTruncated):
        decode_frame(data + b"\x00")


def test_wrong_magic_beats_crc():
    data = bytearray(encode_frame(sensor_frame(1, 0, 1.0, 2.0)))
    data[0] = 0x00  # breaks magic AND crc; magic must win
    with pytest.raises(BadMagic):
        decode_frame(bytes(data))


def test_wrong_version_beats_crc():
    data = bytearray(encode_frame(sensor_frame(1, 0, 1.0, 2.0)))
    data[4] = 0x02
    with pytest.raises(BadVersion):
        decode_frame(bytes(data))


def test_bad_crc_detected():
    data = bytearray(encode_frame(sensor_frame(1, 0, 1.0, 2.0)))
    data[-1] ^= 0xFF
    with pytest.raises(BadCrc):
        decode_frame(bytes(data))


def test_unknown_msg_type_with_valid_crc():
    # re-sign a frame whose type byte is out of range: crc passes, type fails
    body = bytearray(encode_frame(end_frame(1, 0))[:-4])
    body[5] = 0x7F
    data = bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))
    with pytest.raises(UnknownMessageType):
        decode_frame(data)


def test_payload_mismatch_with_valid_crc():
    # SENSOR type byte on a 1-value payload, re-signed
    body = bytearray(encode_frame(setpoint_frame(1, 0, 3.5))[:-4])
    body[5] = MSG_SENSOR
    data = bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))
    with pytest.raises(PayloadMismatch):
        decode_frame(data)


def test_encode_rejects_wrong_value_count():
    with pytest.raises(PayloadMismatch):
        encode_frame(BusFrame(MSG_SENSOR, 1, 0, (1.0,)))
    with pytest.raises(PayloadMismatch):
        encode_frame(BusFrame(MSG_END, 1, 0, (1.0,)))


def test_encode_rejects_unknown_type_and_field_ranges():
    with pytest.raises(UnknownMessageType):
        encode_frame(BusFrame(0x99, 1, 0))
    with pytest.raises(FrameError):
        encode_frame(end_frame(2**32, 0))
    with pytest.raises(FrameError):
        encode_frame(end_frame(0, 2**64))


def test_encoding_is_deterministic():
    a = encode_frame(sensor_frame(9, 45000, 123.456, 52.0))
    b = encode_frame(sensor_frame(9, 45000, 123.456, 52.0))
    assert a == b


finite_doubles = st.floats(allow_nan=False, allow_infinity=False, width=64)


@given(
    kind=st.sampled_from([MSG_SENSOR, MSG_SETPOINT, MSG_END, MSG_FAULT]),
    seq=st.integers(0, 2**32 - 1),
    t=st.integers(0, 2**64 - 1),
    data=st.data(),
)
@settings(max_examples=300)
def test_round_trip_identity(kind, seq, t, data):
    n_vals = {MSG_SENSOR: 2, MSG_SETPOINT: 1, MSG_END: 0, MSG_FAULT: 0}[kind]
    values = tuple(data.draw(finite_doubles) for _ in range(n_vals))
    frame = BusFrame(kind, seq, t, values)
    decoded = decode_frame(encode_frame(frame))
    assert decoded == frame


def test_hexdump_round_trip(tmp_path):
    frames = [
        ("SENSOR", encode_frame(sensor_frame(1, 0, 5.0, 50.0))),
        ("SETPOINT", encode_frame(setpoint_frame(1, 0, 0.1))),
        ("END", encode_frame(end_frame(2, 5000))),
    ]
    path = tmp_path / "frames.hex"
    with AtomicWriter(path) as out:
        out.write(hexdump([[tag.encode() for tag, _ in frames]], b"".join(data for _, data in frames),
                          list(accumulate(len(data) for _, data in frames))))
    assert read_hexdump(path) == frames
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("SENSOR ")
    for tag, data in frames:
        decode_frame(data)  # every dumped frame stays decodable
