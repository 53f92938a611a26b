"""Delimited-text ingestion of PV power traces.

Reads (time, power) columns from a CSV-style file into a PowerSeries.
Timestamps are epoch seconds or ISO-8601 (naive stamps are taken as UTC).
Without resampling, the input must already sit on a strict uniform grid;
with zero-order-hold resampling, rows are sorted by time and gaps are filled
by holding the last observed value. Negative readings are rejected unless
clamp_negative is set, in which case they are zeroed and counted.
"""

from __future__ import annotations

import codecs
import csv
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import islice
from math import isfinite
from pathlib import Path

import numpy as np

from .config import InputError
from .series import PowerSeries
from .util import BLOCK_ROWS, AtomicWriter, number_texts

TIMESTAMP_FORMATS = ("epoch_s", "iso8601")
RESAMPLE_MODES = ("none", "zero_order_hold")


class IngestError(InputError):
    """Input-file problem; messages carry 1-based line numbers where known."""


@dataclass(frozen=True)
class IngestSpec:
    """How to read one PV data file."""

    path: str
    time_column: str = "t_s"
    power_column: str = "power_w"
    timestamp_format: str = "epoch_s"
    resample: str = "none"
    sample_period_s: float | None = None  # required for resampling
    clamp_negative: bool = False
    rated_power_w: float | None = None  # None: use the series maximum
    delimiter: str = ","


@dataclass(frozen=True)
class IngestResult:
    series: PowerSeries
    rows_read: int
    clamped_count: int
    gaps_filled: int


# a chunk's rows, or a block's cells, are ingest's largest transient; small ones keep its peak near the grid's
CHUNK_ROWS = 1024
BLOCK_BYTES = 32 << 10  # some 800 lines of stamps and 17-digit powers
# a column's shape: its text with each digit as "0", and as "x" each byte that is neither a digit nor ".eE+- ,"
_NUMBER_SHAPE = bytes(48 if chr(b) in "0123456789" else b if chr(b) in ".eE+- ," else 120 for b in range(256))


def _stamp_template(suffix: str) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of a canonical stamp with a "0" for each digit, then ","; and
    how far each byte may exceed the template's: 9 for a digit, else 0."""
    stamp = "0000-00-00T00:00:00"
    template = np.frombuffer(f"{stamp}{suffix},".encode(), np.uint8)
    limit = np.zeros_like(template)
    limit[: len(stamp)][template[: len(stamp)] == ord("0")] = 9
    return template, limit


# canonical whole-second stamps, YYYY-MM-DDTHH:MM:SS followed by Z, +00:00 or
# nothing, by their width once joined with ","
_STAMP_TEMPLATES = {len(t): (t, limit) for t, limit in map(_stamp_template, ("", "Z", "+00:00"))}
# where each two-digit field's tens digit sits, its units digit next:
# century, year of century, month, day, hour, minute, second
_TENS = np.array([0, 2, 5, 8, 11, 14, 17])
_FIELD_MIN = np.array([0, 0, 1, 1, 0, 0, 0], dtype=np.uint8)
_FIELD_SPAN = np.array([99, 99, 12, 31, 23, 59, 59], dtype=np.uint8) - _FIELD_MIN
# a 29 February is checked against its year apart
_MONTH_DAYS = np.array([0, 31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
# days from 1 March to the first of each month
_DAYS_FROM_MARCH = np.array([0] + [(153 * ((m + 9) % 12) + 2) // 5 for m in range(1, 13)])


def _parse_iso(raw: str) -> float:
    dt = datetime.fromisoformat(raw.strip().replace("Z", "+00:00"))
    return (dt.replace(tzinfo=timezone.utc) if dt.tzinfo is None else dt).timestamp()


def _iso_seconds(cells: list[str]) -> np.ndarray:
    """Epoch seconds of ISO-8601 stamps, each equal to _parse_iso's bitwise."""
    seconds = _canonical_seconds(cells)
    return seconds if seconds is not None else np.fromiter(map(_parse_iso, cells), np.float64, len(cells))


def _canonical_seconds(cells: list[str]) -> np.ndarray | None:
    """Epoch seconds of stamps that are all canonical and of one width, else None.

    The stamps are joined with "," and viewed as one row of bytes each (a
    non-ASCII character reads "?"). When every row matches the template of
    its width, no stamp holds a ",", so the rows are the stamps. Each
    character and field range is checked, leap days included; the days are
    counted from the civil date by H. Hinnant's days_from_civil
    ("chrono-Compatible Low-Level Date Algorithms"). Whole seconds are
    integers, so the result is exact.
    """
    n = len(cells)
    text = ",".join(cells) + ","  # a TypeError on a missing cell
    width, rest = divmod(len(text), max(n, 1))
    if rest or width not in _STAMP_TEMPLATES:
        return None
    template, limit = _STAMP_TEMPLATES[width]
    digits = np.frombuffer(text.encode("ascii", "replace"), np.uint8).reshape(n, width) - template
    if not (digits <= limit).all():  # a byte below the template's wraps past its limit
        return None
    fields = digits[:, _TENS] * np.uint8(10) + digits[:, _TENS + 1]
    if not (fields - _FIELD_MIN <= _FIELD_SPAN).all():  # a field below its minimum wraps past its span
        return None
    century, year, month, day, hour, minute, second = fields.astype(np.int64).T
    year += 100 * century
    if not (year.all() and (day <= _MONTH_DAYS[month]).all()):
        return None
    leap_days = year[(month == 2) & (day == 29)]
    if not ((leap_days % 4 == 0) & ((leap_days % 100 != 0) | (leap_days % 400 == 0))).all():
        return None
    year -= month <= 2  # years counted from March, so a leap day ends its year
    era, year_of_era = np.divmod(year, 400)
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + _DAYS_FROM_MARCH[month] + day - 1
    days = era * 146097 + day_of_era - 719468  # 719468: 0000-03-01 to 1970-01-01
    return days * 86400.0 + (hour * 3600 + minute * 60 + second)


def _floats(cells: list[str]) -> np.ndarray:
    """float() of each cell, bitwise; raises as float() does (a TypeError on None).
    One orjson.loads, a correctly rounded parser in compiled code, reads a
    column of digits, ".", "e", "E", "+", "-" and spaces if it reads one
    number per cell; but not a "-" save after an "e" (orjson reads "-0" as
    the int 0), nor 300 digits in a row (it misrounds a tie written with
    over 768). float() reads any other column ("+5", ".5", "1e400")."""
    import orjson  # only an ingest parses numbers: a run over a synthetic trace never loads it

    text = ",".join(cells).encode("utf-8", "replace")
    shape = text.translate(_NUMBER_SHAPE)
    minus = b"-" in text and text.count(b"-") != text.count(b"e-") + text.count(b"E-")
    if not (minus or b"x" in shape or b"0" * 300 in shape):
        try:
            values = orjson.loads(b"[" + text + b"]")
        except orjson.JSONDecodeError:
            values = ()
        if len(values) == len(cells):
            return np.array(values, dtype=np.float64)
    return np.fromiter(map(float, cells), np.float64, len(cells))


def _cells(rows: list[list[str]], i: int) -> list[str | None]:
    """Column i of the non-blank rows; a short row's missing cell reads None."""
    try:
        return [row[i] for row in rows]
    except IndexError:  # a blank or short row
        return [row[i] if i < len(row) else None for row in rows if row]


def _parse_chunk(
    time_cells: list, power_cells: list, parse_times: Callable[[list], np.ndarray], clamp_negative: bool
) -> tuple[np.ndarray, np.ndarray, int]:
    """A chunk's (times, powers) and how many powers were clamped; raises
    AttributeError, TypeError or ValueError if any row is in error."""
    t = parse_times(time_cells)
    p = _floats(power_cells)
    if not np.isfinite(p).all():
        raise ValueError("non-finite power")
    negative = p < 0.0
    clamped = int(np.count_nonzero(negative))
    if clamped:
        if not clamp_negative:
            raise ValueError("negative power")
        p[negative] = 0.0
    return t, p, clamped


def _parse_rows(
    rows: list[list[str]],
    line: int,
    last_line: int,
    ti: int,
    pi: int,
    parse_time: Callable[[str], float],
    clamp_negative: bool,
) -> tuple[np.ndarray, np.ndarray, int, list[str]]:
    """A chunk read row by row, as (times, powers, clamped, errors).

    line is the line before the chunk's first row and last_line the one its
    last row ends on. A row spans one line and one more per line break in
    its quoted cells, except that a quote left open at the end of the file
    also holds the file's last line break.
    """
    ends = []
    for row in rows[:-1]:
        line += 1 + sum(cell.count("\n") + cell.count("\r") - cell.count("\r\n") for cell in row)
        ends.append(line)
    ends.append(last_line)
    times, powers, errors, clamped = [], [], [], 0
    for row, line in zip(rows, ends):
        if not row:
            continue
        raw = row[ti] if ti < len(row) else None
        try:
            t = parse_time(raw)
        except (AttributeError, TypeError, ValueError):  # None.strip() is an AttributeError
            errors.append(f"line {line}: unparseable time {raw!r}")
            continue
        raw = row[pi] if pi < len(row) else None
        try:
            p = float(raw)
        except (TypeError, ValueError):
            errors.append(f"line {line}: unparseable power {raw!r}")
            continue
        if not isfinite(p):
            errors.append(f"line {line}: non-finite power {p}")
        elif p < 0.0 and not clamp_negative:
            errors.append(f"line {line}: negative power {p} (enable clamp_negative to zero it)")
        else:
            if p < 0.0:
                p = 0.0
                clamped += 1
            times.append(t)
            powers.append(p)
    return np.array(times, dtype=np.float64), np.array(powers, dtype=np.float64), clamped, errors


def _read_plain(spec: IngestSpec, path: Path, parse_times: Callable[[list], np.ndarray]) -> tuple | None:
    """What _read_rows returns, for a file that csv.reader would split by its
    delimiter alone; else None, as for a row in error or no rows at all. Past
    the header, each block of some BLOCK_BYTES, cut at a line end, must be
    ASCII and shorter than csv.field_size_limit(), with no quote, no "\r" but
    in "\r\n", no blank line, and ncols - 1 delimiters a line: every ncols-th
    break (a delimiter or a line end) is a line end, and there are no more.
    One split gives its cells, and stride slices its columns."""
    if not spec.delimiter.isascii() or spec.delimiter in '"\r\n':
        return None
    times, powers, clamped = array("d"), array("d"), 0
    with open(path, "rb") as fh:
        line = fh.readline().removeprefix(codecs.BOM_UTF8)
        if b'"' in line or line.count(b"\r") != line.count(b"\r\n"):
            return None
        try:
            header = next(csv.reader([line.decode()], delimiter=spec.delimiter))
        except (UnicodeDecodeError, csv.Error):
            return None
        column = {name: i for i, name in enumerate(header)}  # a name's last column wins
        if not {spec.time_column, spec.power_column} <= column.keys() or len(header) < 2:
            return None  # with two columns or more, a blank line fails the delimiter count
        ti, pi, ncols = column[spec.time_column], column[spec.power_column], len(header)
        while block := fh.read(BLOCK_BYTES):
            block += fh.readline()  # on to the end of the line the read cut
            if b"\r" in block:
                block = block.replace(b"\r\n", b"\n")
            block += b"" if block.endswith(b"\n") else b"\n"  # the file's last line
            data = np.frombuffer(block, np.uint8)
            ends = data == 10
            breaks = np.flatnonzero(ends | (data == ord(spec.delimiter)))
            if not (block.isascii() and len(block) < csv.field_size_limit() and b'"' not in block and b"\r" not in block
                    and len(breaks) == ncols * np.count_nonzero(ends) and ends[breaks[ncols - 1 :: ncols]].all()):
                return None
            cells = block.decode("ascii").replace("\n", spec.delimiter).split(spec.delimiter)
            cells.pop()  # after the last line end
            try:
                t, p, n_clamped = _parse_chunk(cells[ti::ncols], cells[pi::ncols], parse_times, spec.clamp_negative)
            except (TypeError, ValueError):
                return None
            times.frombytes(t.view(np.uint8))
            powers.frombytes(p.view(np.uint8))
            clamped += n_clamped
            del block, data, ends, breaks, cells, t, p
    if not times:
        return None
    return np.frombuffer(times, dtype=np.float64), np.frombuffer(powers, dtype=np.float64), clamped


def _read_rows(spec: IngestSpec, path: Path) -> tuple[np.ndarray, np.ndarray, int]:
    """The accepted rows as (times, powers) float arrays, and how many were clamped.

    A file of plain blocks is read by _read_plain. Any other file is read
    whole by csv.reader, whose rows are parsed column by column, CHUNK_ROWS
    at a time; a chunk with any row in error is read again row by row, so
    the errors come in row order with the line each row ends on.
    """
    epoch = spec.timestamp_format == "epoch_s"
    parse_times, parse_time = (_floats, float) if epoch else (_iso_seconds, _parse_iso)
    plain = _read_plain(spec, path, parse_times)
    if plain is not None:
        return plain
    times, powers = array("d"), array("d")
    errors, clamped = [], 0
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=spec.delimiter)
            header = next(reader, None)
            if header is None:
                raise IngestError([f"{path}: empty file"])
            # as csv.DictReader: a name's last column wins, blank rows are skipped, short rows read None
            column = {name: i for i, name in enumerate(header)}
            missing = {spec.time_column, spec.power_column} - column.keys()
            if missing:
                raise IngestError([f"{path}: missing column {c!r} (found {header})" for c in sorted(missing)])
            ti, pi = column[spec.time_column], column[spec.power_column]
            line = reader.line_num
            while rows := list(islice(reader, CHUNK_ROWS)):
                try:
                    t, p, n_clamped = _parse_chunk(_cells(rows, ti), _cells(rows, pi), parse_times, spec.clamp_negative)
                except (AttributeError, TypeError, ValueError):
                    t, p, n_clamped, row_errors = _parse_rows(
                        rows, line, reader.line_num, ti, pi, parse_time, spec.clamp_negative
                    )
                    errors += row_errors
                times.frombytes(t.view(np.uint8))
                powers.frombytes(p.view(np.uint8))
                clamped += n_clamped
                line = reader.line_num
                del rows, t, p
    except UnicodeDecodeError as exc:
        raise IngestError([f"{path}: not UTF-8 text ({exc})"]) from exc
    except csv.Error as exc:  # e.g. a cell past csv.field_size_limit()
        raise IngestError([f"line {reader.line_num}: {exc}"]) from exc

    if errors:
        raise IngestError(errors)
    if not times:
        raise IngestError([f"{path}: no data rows"])
    return np.frombuffer(times, dtype=np.float64), np.frombuffer(powers, dtype=np.float64), clamped


def ingest_csv(spec: IngestSpec) -> IngestResult:
    """Read a PV trace per the spec; collects every row error before failing."""
    if spec.timestamp_format not in TIMESTAMP_FORMATS:
        raise IngestError([f"timestamp_format {spec.timestamp_format!r} not one of {TIMESTAMP_FORMATS}"])
    if spec.resample not in RESAMPLE_MODES:
        raise IngestError([f"resample {spec.resample!r} not one of {RESAMPLE_MODES}"])
    if not (isinstance(spec.delimiter, str) and len(spec.delimiter) == 1):
        raise IngestError([f"delimiter {spec.delimiter!r}: must be one character"])
    if spec.resample == "zero_order_hold" and not (spec.sample_period_s and spec.sample_period_s > 0):
        raise IngestError(["sample_period_s: required (> 0) when resampling"])

    path = Path(spec.path)
    if not path.exists():
        raise IngestError([f"{path}: file not found"])
    if path.is_dir():
        raise IngestError([f"{path}: is a directory, not a CSV file"])

    t_arr, p_arr, clamped = _read_rows(spec, path)
    rows_read = len(t_arr)
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
        # each array is let go as soon as it is used, so no more than three
        # grid-sized float arrays are alive at once
        order = np.argsort(t_arr, kind="stable")
        t_arr, p_arr = t_arr[order], p_arr[order]
        del order
        if (np.diff(t_arr) == 0.0).any():
            dup = int(np.argmax(np.diff(t_arr) == 0.0))
            raise IngestError([f"duplicate timestamp t={t_arr[dup]}"])
        period = float(spec.sample_period_s)  # validated above
        start = float(t_arr[0])
        n = int(np.floor((t_arr[-1] - start) / period + 1e-9)) + 1
        grid_t = start + np.arange(n) * period
        idx = np.searchsorted(t_arr, grid_t + 1e-9 * period, side="right") - 1
        grid_p = p_arr[idx]
        del p_arr
        # a grid point is "filled" when the held observation is older than it
        held = t_arr[idx]
        del idx
        held -= grid_t
        del grid_t
        np.abs(held, out=held)
        gaps_filled = int(np.count_nonzero(held > 1e-6 * period))
        del held

    rated = spec.rated_power_w if spec.rated_power_w is not None else float(grid_p.max())
    if not rated > 0:
        raise IngestError(["cannot infer a positive rated power (all samples zero?); set rated_power_w"])

    series = PowerSeries(
        samples=grid_p, sample_period_s=period, rated_power_w=rated, start_time_s=start
    )
    return IngestResult(series=series, rows_read=rows_read, clamped_count=clamped, gaps_filled=gaps_filled)


def write_series_csv(series: PowerSeries, path: str | Path) -> None:
    """Canonical two-column form: epoch seconds and watts, each as repr writes
    it (number_texts, one call a block of BLOCK_ROWS rows)."""
    times, samples = series.times_s(), series.samples
    with AtomicWriter(path) as out:
        out.write(b"t_s,power_w\n")
        for i in range(0, len(samples), BLOCK_ROWS):
            rows = number_texts(np.stack((times[i : i + BLOCK_ROWS], samples[i : i + BLOCK_ROWS]), axis=1))
            out.write(b"\n".join(rows) + b"\n")
