import math
import os
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pvsmooth.controller import CONTROLLER_LOG_COLUMNS
from pvsmooth.run import write_controller_log
from pvsmooth.util import AtomicWriter, Columns, FloatTexts, atomic_write_text, chunked

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


# --- columnar tables ------------------------------------------------------------


def test_columns_views():
    t = Columns({"k": "q", "x": "d", "flag": "b"})
    for i in range(5000):
        t.k.append(i)
        t.x.append(i / 4)
        t.flag.append(i % 2 == 0)
    assert len(t) == 5000
    assert t.numpy("x")[-1] == 4999 / 4


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
    log = Columns(CONTROLLER_LOG_COLUMNS)
    for row in rows:
        for name, value in zip(log.names, row):
            getattr(log, name).append(value)
    path = tmp_path_factory.mktemp("log") / "controller_log.csv"
    with AtomicWriter(path) as out:
        write_controller_log(log, out, FloatTexts())
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CONTROLLER_LOG_COLUMNS)
    assert len(lines) == len(rows) + 1
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert [int(c) for c in (cells[0], cells[6], cells[7])] == [row[0], row[6], row[7]]
        assert [bits(float(c)) for c in cells[1:6]] == [bits(v) for v in row[1:6]]


def test_float_texts_keep_only_the_last_blocks_values():
    texts = FloatTexts()
    first = texts(np.array([1.5, 2.0, 2.0, -0.0]))
    second = texts(np.array([3.0, 0.0, 1.5, 3.0]))
    assert first.tolist() == ["1.5", "2.0", "2.0", "-0.0"]
    assert second.tolist() == ["3.0", "0.0", "1.5", "3.0"]
    # the distinct bits of the second block, sorted, with their texts;
    # 2.0 and -0.0 are gone, and 0.0 is a key of its own
    assert texts.bits.tolist() == sorted(np.array([3.0, 0.0, 1.5]).view(np.int64).tolist())
    assert texts.texts.tolist() == [repr(v) for v in texts.bits.view(np.float64).tolist()]
    assert second[2] is first[0]  # 1.5 was taken from the first block, not formatted again
