"""Small shared helpers: atomic file writes, packed step logs and their text."""

from __future__ import annotations

import os
import struct
import sys
import threading
from collections.abc import Callable, Iterable, Iterator
from itertools import islice
from pathlib import Path

import numpy as np

BLOCK_ROWS = 1024  # rows per block handed to a table's sink
FORMAT_ROWS = 256  # rows converted to Python values, and lines joined, at a time


class AtomicWriter:
    """A text file written piece by piece and renamed into place at the end.

    The pieces go to a temporary file beside the target, named after the
    writing process and thread, so concurrent writers never share one; the
    last rename wins. Used as a context manager: a block that ends cleanly
    renames the file into place, one that raises removes the temporary file
    and leaves any old file as it was.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        self._fh = open(self.tmp, "w", encoding="utf-8")

    def write(self, text: str | Iterable[str]) -> None:
        """Append `text`, a string or an iterable of chunks written in order."""
        self._fh.writelines([text] if isinstance(text, str) else text)

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


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write-then-rename so readers never observe a partial file.

    `text` is the whole content or an iterable of chunks written in order.
    """
    with AtomicWriter(path) as out:
        out.write(text)


def chunked(lines: Iterable[str], size: int = FORMAT_ROWS) -> Iterator[str]:
    """Join consecutive lines into chunks of `size` lines."""
    it = iter(lines)
    while chunk := "".join(islice(it, size)):
        yield chunk


# orjson writes a float64 as repr does (the shortest text that reads back
# bitwise) when it is zero or its magnitude lies in [1e-4, 1e16); outside
# that window it writes 1e16 where repr writes 1e+16, 0.00001 for 1e-05,
# and null for NaN and inf
TEXT_WINDOW = (1e-4, 1e16)


def float_texts(values: np.ndarray) -> list[str]:
    """repr of each value of a float64 array, in order.

    One orjson call, a shortest round-trip formatter in compiled code,
    writes every value; repr rewrites the few outside TEXT_WINDOW, so each
    text equals repr of its value (-0.0, NaN and inf included).
    """
    import orjson  # only a writer formats: the session's process never loads it

    if not values.size:
        return []
    values = np.ascontiguousarray(values, dtype=np.float64)
    texts = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    size = np.abs(values)
    lo, hi = TEXT_WINDOW
    odd = np.flatnonzero(~(((lo <= size) & (size < hi)) | (values == 0.0)))
    for i, value in zip(odd.tolist(), values[odd].tolist()):
        texts[i] = repr(value)
    return texts


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

    def csv_chunks(self) -> Iterator[str]:
        """The rows held as CSV text, after the header when they start the
        table, so a table's blocks in order make up its whole file. Floats
        are written as repr writes them (float_texts, one call for all of
        the block's floats), so each reads back bitwise with float(); flags
        and integers as decimal integers."""
        if self.start == 0:
            yield ",".join(self.names) + "\n"
        recs = self.view()
        n = len(recs)
        floats = [name for name in self.names if self.dtype[name].kind == "f"]
        texts = float_texts(np.stack([recs[name] for name in floats]).ravel()) if n else []
        float_cells = {name: texts[j * n : (j + 1) * n] for j, name in enumerate(floats)}
        cols = [float_cells[name] if name in float_cells else list(map(str, recs[name].tolist())) for name in self.names]
        for i in range(0, n, FORMAT_ROWS):  # join rows a chunk at a time
            yield "\n".join(map(",".join, zip(*(col[i : i + FORMAT_ROWS] for col in cols)))) + "\n"
