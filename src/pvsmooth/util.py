"""Small shared helpers: atomic file writes and columnar step logs."""

from __future__ import annotations

import os
import threading
from array import array
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


class FloatTexts:
    """repr of float64 values, formatted once per distinct bit pattern.

    Calling it with a block of values returns an object array of their repr
    strings. Each distinct bit pattern in the block is formatted once, or not
    at all when the previous block held it: only that block's sorted bits and
    texts are kept. So blocks of two tables for the same steps, such as the
    plant trace's and the controller log's, share the values they both hold.
    Keys are bit patterns, never float values (0.0 == -0.0 and NaN != NaN),
    and a key's text is repr of its own value, so the text equals repr of
    each value it stands for.
    """

    def __init__(self):
        self.bits = np.empty(0, np.int64)  # the last block's distinct bits, sorted
        self.texts = np.empty(0, object)  # repr of each, in the same order

    def __call__(self, values: np.ndarray) -> np.ndarray:
        bits, where = np.unique(values.view(np.int64), return_inverse=True)
        pos = np.searchsorted(self.bits, bits)
        hit = pos < self.bits.size
        hit[hit] = self.bits[pos[hit]] == bits[hit]
        texts = np.empty(bits.size, object)
        texts[hit] = self.texts[pos[hit]]
        miss = ~hit
        texts[miss] = np.fromiter(map(repr, bits[miss].view(np.float64).tolist()), object, np.count_nonzero(miss))
        self.bits, self.texts = bits, texts
        return texts[where]


class Columns:
    """A table kept as one stdlib array per column, appended once per row.

    `spec` maps column names to array typecodes (such as 'd' float64, 'q'
    int64, 'b' int8 for flags); each column is an attribute of that name.
    Owners append to every column of a row themselves, in their own code
    (through `appenders`), so the columns stay equally long and tracemalloc
    charges the memory to the owner's module, and then call end_row.

    A table with a sink holds one block at a time: every BLOCK_ROWS rows it
    calls sink(table) and drops the rows, and `start` counts the rows
    dropped so far. A table without a sink keeps every row.
    """

    def __init__(self, spec: dict[str, str], sink: Callable[[Columns], None] | None = None):
        self.names = tuple(spec)
        for name, typecode in spec.items():
            setattr(self, name, array(typecode))
        self.sink = sink
        self.start = 0  # index in the whole table of the first row held
        self._room = BLOCK_ROWS  # rows until the block is full

    def __len__(self) -> int:
        return len(getattr(self, self.names[0]))

    def appenders(self) -> tuple[Callable[[float], None], ...]:
        """The columns' bound append methods, in column order; a block
        hand-off empties the columns in place, so they stay valid."""
        return tuple(getattr(self, name).append for name in self.names)

    def end_row(self) -> None:
        """Close the row just appended; hand a full block to the sink."""
        if self.sink is not None:
            self._room -= 1
            if not self._room:
                self.sink(self)
                self.start += len(self)
                for name in self.names:
                    del getattr(self, name)[:]
                self._room = BLOCK_ROWS

    def numpy(self, name: str) -> np.ndarray:
        """A view of one column; the table must not grow while it is held."""
        col = getattr(self, name)
        return np.frombuffer(col, dtype=col.typecode)

    def csv_chunks(self, texts: FloatTexts) -> Iterator[str]:
        """The rows held as CSV text, after the header when they start the
        table, so a table's blocks in order make up its whole file. Floats
        are written with repr, so each reads back bitwise with float(), and
        formatted through `texts`, which may carry the previous block's
        texts; flags and integers as decimal integers."""
        if self.start == 0:
            yield ",".join(self.names) + "\n"
        n = len(self)
        floats = [name for name in self.names if getattr(self, name).typecode == "d"]
        values = np.concatenate([self.numpy(name) for name in floats])
        float_cells = dict(zip(floats, texts(values).reshape(len(floats), n)))
        for i in range(0, n, FORMAT_ROWS):  # texts column by column, then join rows
            cells = [
                float_cells[name][i : i + FORMAT_ROWS].tolist() if name in float_cells
                else map(repr, getattr(self, name)[i : i + FORMAT_ROWS].tolist())
                for name in self.names
            ]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"
