"""Small shared helpers: atomic file writes and columnar step logs."""

from __future__ import annotations

import os
import threading
from array import array
from collections.abc import Iterable, Iterator
from itertools import islice
from pathlib import Path

import numpy as np

BLOCK_ROWS = 4096  # rows formatted per chunk by the streaming writers


def atomic_write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write-then-rename so readers never observe a partial file.

    `text` is the whole content or an iterable of chunks written in order.
    The temporary file beside the target is named after the writing process
    and thread, so concurrent writers never share one; the last rename wins.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def chunked(lines: Iterable[str], size: int = BLOCK_ROWS) -> Iterator[str]:
    """Join consecutive lines into chunks of `size` lines."""
    it = iter(lines)
    while chunk := "".join(islice(it, size)):
        yield chunk


class Columns:
    """A table kept as one stdlib array per column, appended once per row.

    `spec` maps column names to array typecodes (such as 'd' float64, 'q'
    int64, 'b' int8 for flags); each column is an attribute of that name.
    Owners append to every column of a row themselves, in their own code,
    so the columns stay equally long and tracemalloc charges the memory to
    the owner's module.
    """

    def __init__(self, spec: dict[str, str]):
        self.names = tuple(spec)
        for name, typecode in spec.items():
            setattr(self, name, array(typecode))

    def __len__(self) -> int:
        return len(getattr(self, self.names[0]))

    def numpy(self, name: str) -> np.ndarray:
        """A view of one column; the table must not grow while it is held."""
        col = getattr(self, name)
        return np.frombuffer(col, dtype=col.typecode)

    def rows(self, names: Iterable[str] | None = None) -> Iterator[tuple]:
        """Rows of the named columns (default: all) as Python values,
        converted BLOCK_ROWS at a time."""
        cols = [getattr(self, n) for n in (self.names if names is None else names)]
        for i in range(0, len(self), BLOCK_ROWS):
            yield from zip(*(c[i : i + BLOCK_ROWS].tolist() for c in cols))

    def csv_chunks(self) -> Iterator[str]:
        """The table as CSV text: a header, then one line per row. Floats are
        written with repr, so each reads back bitwise with float(); flags
        and integers as decimal integers."""
        yield ",".join(self.names) + "\n"
        line = ",".join(["%r"] * len(self.names)) + "\n"
        yield from chunked(line % row for row in self.rows())
