"""Small shared helpers: atomic file writes, packed step logs and their text."""

from __future__ import annotations

import os
import struct
import sys
import threading
from collections.abc import Callable, Sequence
from itertools import groupby
from pathlib import Path

import numpy as np

BLOCK_ROWS = 1024  # rows per block handed to a table's sink


class AtomicWriter:
    """A file written piece by piece, as bytes, and renamed into place at the end.

    The pieces go to a temporary file beside the target, named after the
    writing process and thread, so concurrent writers never share one; the
    last rename wins. Used as a context manager: a block that ends cleanly
    renames the file into place, one that raises removes the temporary file
    and leaves any old file as it was.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        self._fh = open(self.tmp, "wb")

    def write(self, data: bytes) -> None:
        self._fh.write(data)

    def close(self) -> None:
        """Flush and close the temporary file, leaving it in place; a writer
        process hands a file back this way, and its owner renames it."""
        self._fh.close()

    def __enter__(self) -> AtomicWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
            if exc_type is None:
                os.replace(self.tmp, self.path)
        finally:
            self.tmp.unlink(missing_ok=True)  # already gone after the rename


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write `text` as UTF-8, then rename, so readers never observe a partial file."""
    with AtomicWriter(path) as out:
        out.write(text.encode())


# orjson writes a float64 as repr does (the shortest text that reads back
# bitwise) but at magnitudes in [1e-9, 1e-4), where it writes 0.00001 and
# 1e-6 for repr's 1e-05 and 1e-06 (below 1e-9 both exponents have two
# digits), from 1e16 up (1e16 for 1e+16), and for NaN and inf (null)
REPR_EDGES = (1e-9, 1e-4, 1e16)


def number_texts(values: np.ndarray) -> list[bytes]:
    """The text of each value of a 1-D numeric array, or of each row of a 2-D
    one (its values joined by commas): integers as str writes them, floats
    as repr does. orjson, a shortest round-trip formatter in compiled code,
    writes every value in one call; repr rewrites the few floats whose
    orjson text differs (REPR_EDGES)."""
    import orjson  # only a writer formats: the session's process never loads it

    if not len(values):
        return []
    values = np.ascontiguousarray(values)
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    texts = text[1:-1].split(b",") if values.ndim == 1 else text[2:-2].split(b"],[")
    if values.dtype.kind == "f":
        rows = values.reshape(len(values), -1)
        size = np.abs(rows)
        tiny, lo, hi = REPR_EDGES
        odd = ~((size < tiny) | ((lo <= size) & (size < hi)))  # NaN compares false
        for i in np.flatnonzero(odd.any(axis=1)).tolist():
            cells = texts[i].split(b",")
            for j in np.flatnonzero(odd[i]).tolist():
                cells[j] = repr(rows[i, j].item()).encode()
            texts[i] = b",".join(cells)
    return texts


def join_lines(columns: Sequence[bytes | Sequence[bytes]], n: int) -> bytes:
    """n lines, each its item of every column in turn: a column is a bytes
    object, the same on every line, or a sequence of n of them. Every item
    goes in its place in one list, a column at a time, joined once."""
    items = [column if isinstance(column, bytes) else b"" for column in columns] * n
    for j, column in enumerate(columns):
        if not isinstance(column, bytes):
            items[j :: len(columns)] = column
    return b"".join(items)


class Records:
    """A table kept as packed little-endian records, one per row, in one bytearray.

    `spec` maps column names to struct format codes, in record order ('d'
    float64, 'q' int64, 'I' uint32, 'b' int8 for flags). `layout`, a
    struct.Struct without padding, packs a row; `dtype`, a numpy structured
    dtype with the same offsets, views the rows by column name (`view`, or
    the column's name as an attribute: a numpy view, so the table must not
    grow while it is held). Owners pack their rows into `rows` themselves,
    in their own code, so tracemalloc charges the memory to the owner's
    module:

        rows += pack(...)
        if len(rows) >= table.block_bytes:
            table.hand_off()

    A table with a sink holds one block of BLOCK_ROWS rows at a time:
    hand_off calls sink(table) and drops the rows, and `start` counts the
    rows dropped so far. A table without a sink keeps every row; its
    block_bytes is never reached.
    """

    def __init__(self, spec: dict[str, str], sink: Callable[[Records], None] | None = None):
        self.names = tuple(spec)
        self.layout = struct.Struct("<" + "".join(spec.values()))
        self.dtype = np.dtype([(name, "<" + code) for name, code in spec.items()])
        self.rows = bytearray()
        self.sink = sink
        self.start = 0  # index in the whole table of the first row held
        self.block_bytes = BLOCK_ROWS * self.layout.size if sink is not None else sys.maxsize

    def __len__(self) -> int:
        return len(self.rows) // self.layout.size

    def __getattr__(self, name: str) -> np.ndarray:
        if name in self.__dict__.get("names", ()):
            return self.view()[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def view(self) -> np.ndarray:
        """The rows held, as a numpy structured array over `rows`."""
        return np.frombuffer(self.rows, dtype=self.dtype)

    def hand_off(self) -> None:
        """Hand the full block to the sink and drop its rows."""
        self.sink(self)
        self.start += len(self)
        del self.rows[:]

    def csv_bytes(self) -> bytes:
        """The rows held as CSV text, after the header when they start the
        table, so a table's blocks in order make up its whole file; each run
        of adjacent float columns, and each integer column, in one
        number_texts call."""
        head = (",".join(self.names) + "\n").encode() if self.start == 0 else b""
        recs = self.view()
        columns = []
        for floats, names in groupby(self.names, key=lambda name: self.dtype[name].kind == "f"):
            cols = [recs[name] for name in names]
            for col in [np.stack(cols, axis=1)] if floats else cols:  # a float run's rows in one call
                columns += [number_texts(col), b","]
        columns[-1] = b"\n"
        return head + join_lines(columns, len(recs))
