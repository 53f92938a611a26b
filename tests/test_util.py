import math
import os
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvsmooth.bus import FRAME_LOG_COLUMNS
from pvsmooth.controller import CONTROLLER_LOG_COLUMNS
from pvsmooth.plant import PLANT_TRACE_COLUMNS
from pvsmooth.run import write_controller_log
from pvsmooth.util import BLOCK_ROWS, TEXT_WINDOW, AtomicWriter, Records, atomic_write_text, chunked, float_texts

# --- atomic writes ------------------------------------------------------------


def test_concurrent_writers_never_mix_or_leave_temp_files(tmp_path):
    # one writer passes whole strings, the other chunk iterables; a reader
    # must only ever see one input in full, and the last rename wins
    path = tmp_path / "shared.csv"
    contents = ["a" * 100_000 + "\n", "b" * 70_000 + "\n"]
    pieces = [contents[1][j : j + 1000] for j in range(0, len(contents[1]), 1000)]
    atomic_write_text(path, contents[0])
    seen = set()
    stop = threading.Event()

    def write(i: int) -> None:
        for _ in range(60):
            atomic_write_text(path, contents[0] if i == 0 else chunked(pieces))

    def read() -> None:
        while not stop.is_set():
            seen.add(path.read_text(encoding="utf-8"))

    writers = [threading.Thread(target=write, args=(i,)) for i in (0, 1)]
    reader = threading.Thread(target=read)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reader.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join(timeout=60.0)
    finally:
        stop.set()
        reader.join(timeout=60.0)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in (*writers, reader))
    assert path.read_text(encoding="utf-8") in contents
    assert seen <= set(contents)
    assert [p.name for p in tmp_path.iterdir()] == ["shared.csv"]


def test_failed_write_keeps_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "old\n")

    def chunks():
        yield "new, partial\n"
        raise RuntimeError("writer broke")

    with pytest.raises(RuntimeError, match="writer broke"):
        atomic_write_text(path, chunks())
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_written_file_gets_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("x", encoding="utf-8")
    atomic_write_text(tmp_path / "atomic.txt", "x")
    assert os.stat(tmp_path / "atomic.txt").st_mode == os.stat(plain).st_mode


def test_chunked_joins_lines_in_blocks():
    lines = [f"{i}\n" for i in range(10)]
    assert list(chunked(lines, 4)) == ["0\n1\n2\n3\n", "4\n5\n6\n7\n", "8\n9\n"]
    assert list(chunked([], 4)) == []


# --- packed tables ---------------------------------------------------------------

TABLES = {"plant": PLANT_TRACE_COLUMNS, "controller": CONTROLLER_LOG_COLUMNS, "frames": FRAME_LOG_COLUMNS}


def test_records_views():
    t = Records({"k": "q", "x": "d", "flag": "b"})
    for i in range(5000):
        t.rows += t.layout.pack(i, i / 4, i % 2 == 0)
    assert len(t) == 5000
    assert t.x[-1] == 4999 / 4
    assert t.view()["flag"][:3].tolist() == [1, 0, 1]


@pytest.mark.parametrize("name", TABLES)
def test_record_layout_matches_the_numpy_view(name):
    # a padding byte in either would shift every column after it
    table = Records(TABLES[name])
    fmt = table.layout.format
    assert table.layout.size == table.dtype.itemsize == sum(struct.calcsize("<" + c) for c in TABLES[name].values())
    offsets = [struct.calcsize(fmt[: 1 + i]) for i in range(len(table.names))]
    assert [table.dtype.fields[n][1] for n in table.names] == offsets
    assert [table.dtype[n].char for n in table.names] == list(TABLES[name].values())
    assert table.dtype.names == table.names


def float_from_bits(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


SIGN = 1 << 63
EXPONENT = 0x7FF << 52
MANTISSA = (1 << 52) - 1
float_bits = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, SIGN, EXPONENT, SIGN | EXPONENT, EXPONENT - 1, SIGN | (EXPONENT - 1)]),  # +-0, +-inf, +-max
    st.tuples(st.sampled_from([0, SIGN]), st.integers(1, MANTISSA)).map(sum),  # subnormals
    st.tuples(st.sampled_from([EXPONENT, SIGN | EXPONENT]), st.integers(1, MANTISSA)).map(sum),  # NaN payloads
)


def cells_of(spec: dict[str, str]):
    """A strategy for one row of a table: each cell drawn across its type's
    edges (floats as bit patterns, so NaN payloads and -0.0 come up)."""
    by_code = {
        "d": float_bits.map(float_from_bits),
        "q": st.one_of(st.sampled_from([0, 1, 2**62, 2**63 - 1]), st.integers(0, 2**63 - 1)),
        "I": st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)),
        "b": st.one_of(st.booleans(), st.integers(0, 4)),
    }
    return st.tuples(*(by_code[code] for code in spec.values()))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_rows_round_trip_bitwise_through_block_hand_offs(data):
    # rows packed as their owners pack them, handed off every BLOCK_ROWS
    # rows, then taken into a fresh table as the writer process takes a block
    spec = TABLES[data.draw(st.sampled_from(list(TABLES)), label="table")]
    pattern = data.draw(st.lists(cells_of(spec), min_size=1, max_size=8), label="rows")
    n = data.draw(st.sampled_from([0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]), label="n")
    rows = [pattern[i % len(pattern)] for i in range(n)]
    blocks = []
    table = Records(spec, sink=lambda t: blocks.append((t.start, bytes(t.rows))))
    packed, pack = table.rows, table.layout.pack
    for row in rows:
        packed += pack(*row)
        if len(packed) >= table.block_bytes:
            table.hand_off()
    blocks.append((table.start, bytes(table.rows)))
    assert [start for start, _ in blocks] == list(range(0, n + 1, BLOCK_ROWS))
    writer_side = Records(spec)
    got = {name: b"" for name in spec}
    for _, block in blocks:
        writer_side.rows[:] = block
        for name in spec:
            got[name] += writer_side.view()[name].tobytes()
    for j, (name, code) in enumerate(spec.items()):
        assert got[name] == b"".join(struct.pack("<" + code, row[j]) for row in rows), name
        if code == "d":  # the bits drawn, not only equal values
            want = [struct.unpack("<Q", struct.pack("<d", row[j]))[0] for row in rows]
            assert np.frombuffer(got[name], np.uint64).tolist() == want


# --- float texts ------------------------------------------------------------------


def ulps_from(x: float, k: int) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<q", bits + k))[0]


edge_doubles = st.one_of(
    st.builds(lambda edge, k, sign: sign * ulps_from(edge, k), st.sampled_from(TEXT_WINDOW),
              st.integers(-64, 64), st.sampled_from([1.0, -1.0])),
    float_bits.map(float_from_bits),
    st.floats(),
)


@given(values=st.lists(edge_doubles, max_size=50))
@example(values=[])
@example(values=[1e-4, ulps_from(1e-4, -1), 1e16, ulps_from(1e16, -1), -0.0, 0.0, math.nan, -math.inf])
@settings(max_examples=300, deadline=None)
def test_float_texts_equal_repr_around_the_window_edges(values):
    assert float_texts(np.array(values, dtype=np.float64)) == [repr(v) for v in values]


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


LOST_ROW = (0, math.nan, math.nan, math.nan, math.nan, 0.0, False, True)
any_float = st.floats(allow_nan=False)  # includes -0.0, subnormals and +-inf
step_row = st.tuples(
    st.integers(1, 2**62), any_float, any_float, any_float, any_float, any_float, st.booleans(), st.booleans()
)


@given(rows=st.lists(st.one_of(step_row, st.just(LOST_ROW)), max_size=40))
@example(rows=[(1, -0.0, 5e-324, 1.7976931348623157e308, -2.2250738585072014e-308, 1e-300, True, False), LOST_ROW])
@settings(max_examples=150, deadline=None)
def test_controller_log_floats_read_back_bitwise(tmp_path_factory, rows):
    log = Records(CONTROLLER_LOG_COLUMNS)
    for row in rows:
        log.rows += log.layout.pack(*row)
    path = tmp_path_factory.mktemp("log") / "controller_log.csv"
    with AtomicWriter(path) as out:
        write_controller_log(log, out)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CONTROLLER_LOG_COLUMNS)
    assert len(lines) == len(rows) + 1
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert [int(c) for c in (cells[0], cells[6], cells[7])] == [row[0], row[6], row[7]]
        assert [bits(float(c)) for c in cells[1:6]] == [bits(v) for v in row[1:6]]
