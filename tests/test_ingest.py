import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlib import Path

from pvsmooth.ingest import (
    IngestError,
    IngestSpec,
    _canonical_seconds,
    _floats,
    _iso_seconds,
    _parse_iso,
    _read_plain,
    ingest_csv,
    write_series_csv,
)
from pvsmooth.series import PowerSeries


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_three_uniform_rows(tmp_path):
    path = write(tmp_path, "t_s,power_w\n0,1000\n5,2000\n10,3000\n")
    r = ingest_csv(IngestSpec(path=path))
    assert len(r.series) == 3
    assert r.series.sample_period_s == 5.0
    assert r.series.samples.tolist() == [1000.0, 2000.0, 3000.0]
    assert r.series.rated_power_w == 3000.0  # inferred from the max
    assert r.rows_read == 3 and r.gaps_filled == 0


def test_zero_order_hold_fills_gap(tmp_path):
    path = write(tmp_path, "t_s,power_w\n0,100\n10,300\n")
    r = ingest_csv(IngestSpec(path=path, resample="zero_order_hold", sample_period_s=5.0))
    assert r.series.samples.tolist() == [100.0, 100.0, 300.0]
    assert r.gaps_filled == 1


def test_clamp_negative_counts(tmp_path):
    path = write(tmp_path, "t_s,power_w\n0,-50\n5,100\n10,-1\n")
    r = ingest_csv(IngestSpec(path=path, clamp_negative=True))
    assert r.series.samples.tolist() == [0.0, 100.0, 0.0]
    assert r.clamped_count == 2


def test_negative_without_clamp_rejected(tmp_path):
    path = write(tmp_path, "t_s,power_w\n0,-50\n5,100\n")
    with pytest.raises(IngestError, match="line 2.*negative"):
        ingest_csv(IngestSpec(path=path))


def test_unparseable_rows_report_line_numbers(tmp_path):
    path = write(tmp_path, "t_s,power_w\n0,100\nxx,200\n10,yy\n")
    with pytest.raises(IngestError) as exc:
        ingest_csv(IngestSpec(path=path))
    msg = str(exc.value)
    assert "line 3" in msg and "line 4" in msg


def test_non_monotone_without_resample_rejected(tmp_path):
    path = write(tmp_path, "t_s,power_w\n0,100\n10,200\n5,300\n")
    with pytest.raises(IngestError, match="non-monotone"):
        ingest_csv(IngestSpec(path=path))


def test_non_monotone_with_resample_sorted(tmp_path):
    path = write(tmp_path, "t_s,power_w\n0,100\n10,200\n5,300\n")
    r = ingest_csv(IngestSpec(path=path, resample="zero_order_hold", sample_period_s=5.0))
    assert r.series.samples.tolist() == [100.0, 300.0, 200.0]


def test_duplicate_timestamps_rejected(tmp_path):
    path = write(tmp_path, "t_s,power_w\n0,100\n0,200\n5,300\n")
    with pytest.raises(IngestError, match="duplicate"):
        ingest_csv(IngestSpec(path=path, resample="zero_order_hold", sample_period_s=5.0))


def test_non_uniform_without_resample_rejected(tmp_path):
    path = write(tmp_path, "t_s,power_w\n0,100\n5,200\n11,300\n")
    with pytest.raises(IngestError, match="non-uniform"):
        ingest_csv(IngestSpec(path=path))


def test_missing_column_rejected(tmp_path):
    path = write(tmp_path, "when,power_w\n0,100\n")
    with pytest.raises(IngestError, match="missing column 't_s'"):
        ingest_csv(IngestSpec(path=path))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(IngestError, match="not found"):
        ingest_csv(IngestSpec(path=str(tmp_path / "nope.csv")))


def test_iso8601_timestamps(tmp_path):
    path = write(
        tmp_path,
        "stamp,p\n2024-06-01T12:00:00Z,100\n2024-06-01T12:00:05Z,200\n2024-06-01T12:00:10Z,300\n",
    )
    r = ingest_csv(
        IngestSpec(path=path, time_column="stamp", power_column="p", timestamp_format="iso8601")
    )
    assert r.series.sample_period_s == 5.0
    assert len(r.series) == 3


def test_explicit_rated_power(tmp_path):
    path = write(tmp_path, "t_s,power_w\n0,100\n5,200\n")
    r = ingest_csv(IngestSpec(path=path, rated_power_w=1000.0))
    assert r.series.rated_power_w == 1000.0


def test_sample_above_rated_rejected(tmp_path):
    path = write(tmp_path, "t_s,power_w\n0,100\n5,2000\n")
    with pytest.raises(Exception, match="above rated"):
        ingest_csv(IngestSpec(path=path, rated_power_w=1000.0))


def test_series_csv_round_trip(tmp_path):
    s = PowerSeries([0.1, 0.2, 0.30000000000000004], 5.0, 1.0, start_time_s=1717243200.0)
    path = tmp_path / "series.csv"
    write_series_csv(s, path)
    r = ingest_csv(IngestSpec(path=str(path), rated_power_w=1.0))
    assert r.series == s  # full-precision repr round-trips bitwise


def test_period_mismatch_rejected(tmp_path):
    path = write(tmp_path, "t_s,power_w\n0,100\n5,200\n10,300\n")
    with pytest.raises(IngestError, match="does not match"):
        ingest_csv(IngestSpec(path=path, sample_period_s=60.0))


def test_gap_counting_with_large_epoch_timestamps(tmp_path):
    t0 = 1717243200.0  # real-world epoch magnitude
    path = write(
        tmp_path,
        f"t_s,power_w\n{t0},100\n{t0 + 5},200\n{t0 + 20},300\n",
    )
    r = ingest_csv(IngestSpec(path=path, resample="zero_order_hold", sample_period_s=5.0))
    assert r.series.samples.tolist() == [100.0, 200.0, 200.0, 200.0, 300.0]
    assert r.gaps_filled == 2
    assert r.series.start_time_s == t0


@pytest.mark.parametrize("fmt", ["iso8601", "epoch_s"])
def test_a_row_lacking_its_time_cell_is_a_row_error(tmp_path, fmt):
    path = write(tmp_path, "pv_w,timestamp\n1.5\n")
    with pytest.raises(IngestError) as exc:
        ingest_csv(IngestSpec(path=path, time_column="timestamp", power_column="pv_w", timestamp_format=fmt))
    assert exc.value.errors == ["line 2: unparseable time None"]


def test_iso8601_zero_order_hold_peak_is_under_50_bytes_per_row(tmp_path):
    # a list of Python floats costs 32 bytes a value and a row dict far more;
    # the rows are read into float arrays, so what remains is the grid
    rows = 20_000
    t0 = 1_717_200_000
    keep = np.random.default_rng(7).random(rows) >= 0.02  # dropped rows leave gaps to fill
    keep[0] = keep[-1] = True
    stamps = (datetime.fromtimestamp(t0 + 5 * i, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ") for i in range(rows))
    lines = [f"{stamp},{1000.0 + i % 7}" for i, stamp in enumerate(stamps) if keep[i]]
    path = write(tmp_path, "timestamp,pv_w\n" + "\n".join(lines) + "\n")
    spec = IngestSpec(path=path, time_column="timestamp", power_column="pv_w", timestamp_format="iso8601",
                      resample="zero_order_hold", sample_period_s=5.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        r = ingest_csv(spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(r.series) == rows and r.gaps_filled > 0
    assert peak / r.rows_read < 50, peak / r.rows_read


def test_epoch_seconds_zero_order_hold_peak_is_under_50_bytes_per_row(tmp_path):
    # the same file with epoch-second stamps: both columns go through _floats
    rows = 20_000
    t0 = 1_717_200_000
    keep = np.random.default_rng(7).random(rows) >= 0.02
    keep[0] = keep[-1] = True
    lines = [f"{float(t0 + 5 * i)!r},{1000.0 + i % 7}" for i in range(rows) if keep[i]]
    path = write(tmp_path, "timestamp,pv_w\n" + "\n".join(lines) + "\n")
    spec = IngestSpec(path=path, time_column="timestamp", power_column="pv_w", timestamp_format="epoch_s",
                      resample="zero_order_hold", sample_period_s=5.0)
    ingest_csv(spec)  # imports orjson outside the traced call
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        r = ingest_csv(spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(r.series) == rows and r.gaps_filled > 0
    assert peak / r.rows_read < 50, peak / r.rows_read


PLAIN_BODY = "2024-06-01T12:00:00Z,100\n2024-06-01T12:00:05Z,200.5\n2024-06-01T12:00:10Z,300\n"


@pytest.mark.parametrize(
    "text, plain",
    [
        ("timestamp,pv_w\n" + PLAIN_BODY, True),
        ("timestamp,pv_w\r\n" + PLAIN_BODY.replace("\n", "\r\n"), True),
        ("\ufefftimestamp,pv_w\n" + PLAIN_BODY, True),
        ("timestamp,pv_w\n" + PLAIN_BODY.rstrip("\n"), True),
        ("pv_w,x,timestamp\n" + "".join(f"{p},\u00e9,{t}\n" for t, p in (r.split(",") for r in PLAIN_BODY.split())), False),
        ("pv_w,x,timestamp\n" + "".join(f"{p},y,{t}\n" for t, p in (r.split(",") for r in PLAIN_BODY.split())), True),
        ('"timestamp",pv_w\n' + PLAIN_BODY, False),
        ("timestamp,pv_w\n" + PLAIN_BODY.replace(",100", ',"100"'), False),
        ("timestamp,pv_w\n" + PLAIN_BODY.replace("\n", "\r", 1), False),
        ("timestamp,pv_w\n" + PLAIN_BODY.replace("\n", "\n\n", 1), False),
        ("timestamp,pv_w\n" + PLAIN_BODY.replace(",100", ",100,7"), False),
        ("timestamp,pv_w\n" + PLAIN_BODY.replace("12:00:05Z", "12:00:05+00:00"), True),
    ],
)
def test_only_a_file_that_csv_would_split_by_its_delimiter_alone_is_read_as_bytes(tmp_path, text, plain):
    # plain files skip csv.reader: an accent, a quote, a lone "\r", a blank
    # line, a short or a long row, or a row in error sends the file to it
    path = tmp_path / "pv.csv"
    path.write_bytes(text.encode())
    spec = IngestSpec(path=str(path), time_column="timestamp", power_column="pv_w", timestamp_format="iso8601")
    assert (_read_plain(spec, Path(spec.path), _iso_seconds) is not None) == plain
    r = ingest_csv(spec)
    assert r.rows_read == 3 and r.series.samples.tolist() == [100.0, 200.5, 300.0]


@pytest.mark.parametrize(
    "delimiter, row",
    [(",", "2024-06-01T12:00:05Z"), (",", "2024-06-01T12:00:05Z,-3"), (";", "2024-06-01T12:00:05Z;1,5")],
)
def test_a_row_in_error_sends_the_file_to_csv_reader_for_its_line(tmp_path, delimiter, row):
    # a short row, a negative power, and a decimal comma
    body = PLAIN_BODY.replace(",", delimiter).split("\n")
    body[1] = row
    path = tmp_path / "pv.csv"
    path.write_text(f"timestamp{delimiter}pv_w\n" + "\n".join(body))
    spec = IngestSpec(path=str(path), time_column="timestamp", power_column="pv_w", timestamp_format="iso8601",
                      delimiter=delimiter)
    assert _read_plain(spec, path, _iso_seconds) is None
    with pytest.raises(IngestError) as exc:
        ingest_csv(spec)
    assert len(exc.value.errors) == 1 and exc.value.errors[0].startswith("line 3: ")


def test_a_short_row_and_a_long_row_in_one_block_are_not_plain(tmp_path):
    # the block holds the right number of delimiters, but its lines do not;
    # split as one list, its cells would read as the rows (0, 5) and (2, 7)
    path = write(tmp_path, "t_s,power_w\n0\n5,2,7\n")
    spec = IngestSpec(path=path, resample="zero_order_hold", sample_period_s=1.0)
    assert _read_plain(spec, Path(path), _floats) is None
    with pytest.raises(IngestError) as exc:
        ingest_csv(spec)
    assert exc.value.errors == ["line 2: unparseable power None"]


def test_a_one_column_file_is_read_by_csv_reader(tmp_path):
    # without a delimiter on its lines, a blank line would pass the byte path's count
    path = write(tmp_path, "t\n0\n\n5\n10\n")
    spec = IngestSpec(path=path, time_column="t", power_column="t")
    assert _read_plain(spec, Path(path), _floats) is None
    r = ingest_csv(spec)
    assert r.rows_read == 3 and r.series.samples.tolist() == [0.0, 5.0, 10.0]


@pytest.mark.parametrize("delimiter", [";", "\t", " ", "|"])
def test_a_plain_file_reads_as_bytes_with_any_delimiter(tmp_path, delimiter):
    path = write(tmp_path, f"t_s{delimiter}power_w\n0{delimiter}1\n5{delimiter}2.5\n10{delimiter}1e3\n")
    spec = IngestSpec(path=path, delimiter=delimiter)
    t, p, clamped = _read_plain(spec, Path(path), _floats)
    assert t.tolist() == [0.0, 5.0, 10.0] and p.tolist() == [1.0, 2.5, 1000.0] and clamped == 0


@pytest.mark.parametrize("delimiter", [";;", "", "\t\t"])
def test_a_delimiter_of_other_than_one_character_is_rejected(tmp_path, delimiter):
    path = write(tmp_path, "t_s,power_w\n0,1\n")
    with pytest.raises(IngestError) as exc:
        ingest_csv(IngestSpec(path=path, delimiter=delimiter))
    assert exc.value.errors == [f"delimiter {delimiter!r}: must be one character"]


def test_a_cell_past_the_field_limit_is_an_ingest_error(tmp_path):
    path = write(tmp_path, "t_s,power_w\n0,1\n5," + "1" * 200_000 + "\n10,3\n")
    with pytest.raises(IngestError) as exc:
        ingest_csv(IngestSpec(path=path))
    assert exc.value.errors == ["line 3: field larger than field limit (131072)"]


def test_an_unclosed_quote_in_a_large_file_is_an_ingest_error(tmp_path):
    # the quoted cell runs on to the end of the file, past the field limit
    rows = "".join(f"{10 + 5 * i},3\n" for i in range(20_000))
    path = write(tmp_path, f't_s,power_w\n0,1\n5,"2\n{rows}')
    with pytest.raises(IngestError) as exc:
        ingest_csv(IngestSpec(path=path))
    [error] = exc.value.errors
    assert error.endswith(": field larger than field limit (131072)") and error.startswith("line ")


def test_a_byte_order_mark_ingests_as_the_same_file_without_one(tmp_path):
    text = "timestamp,pv_w\n2024-06-01T12:00:00Z,100\n2024-06-01T12:00:05Z,200.5\n2024-06-01T12:00:10Z,300\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    fields = {"time_column": "timestamp", "power_column": "pv_w", "timestamp_format": "iso8601"}
    a, b = (ingest_csv(IngestSpec(path=str(p), **fields)) for p in (plain, marked))
    assert a.series == b.series and a.series.samples.tobytes() == b.series.samples.tobytes()
    assert (a.rows_read, a.clamped_count, a.gaps_filled) == (b.rows_read, b.clamped_count, b.gaps_filled)


@given(
    stamps=st.lists(st.datetimes(max_value=datetime(9999, 12, 31, 23, 59, 59)), min_size=1, max_size=40),
    suffix=st.sampled_from(["", "Z", "+00:00"]),
)
@settings(max_examples=300, deadline=None)
def test_the_stamp_kernel_matches_parse_iso_bitwise(stamps, suffix):
    # years 1-9999 at whole seconds; the kernel must vouch for every stamp
    cells = [d.replace(microsecond=0).isoformat() + suffix for d in stamps]
    seconds = _canonical_seconds(cells)
    assert seconds is not None
    assert seconds.tobytes() == np.array([_parse_iso(c) for c in cells]).tobytes()


NEAR_MISS_STAMPS = [
    "2024-00-10T00:00:00Z", "2024-13-10T00:00:00Z", "2024-06-00T00:00:00Z", "2024-06-32T00:00:00Z",
    "2024-04-31T00:00:00Z", "1900-02-29T00:00:00Z", "2000-02-29T00:00:00Z", "2100-02-29T00:00:00Z",
    "2024-02-29T00:00:00", "2023-02-29T00:00:00+00:00", "2024-06-01T24:00:00Z", "2024-06-01T23:60:00Z",
    "2024-06-01T23:59:60Z", "0000-06-01T00:00:00Z", "\uff12\uff10\uff12\uff14-06-01T00:00:00Z",
    "2024-06-01T00:00:0\u0663Z", "2024-06-01T00:00:00\uff3a", "2024-06-01 00:00:00Z", "2024-06-01T00:00:00z",
    "2024-06-01T00:00:00-00:00", "2024-06-01T00:00:00+01:00", "+024-06-01T00:00:00Z", " 2024-06-01T00:00:00",
    "2024-06-01T00:00:00 ", "2024/06/01T00:00:00Z", "2024-06-01T00:00:00.000Z", "9999-12-31T23:59:59Z",
    "0001-01-01T00:00:00", "1969-12-31T23:59:59+00:00",
]


def stamp_outcome(fn, *args):
    try:
        return "ok", np.asarray(fn(*args), dtype=np.float64).tobytes()
    except Exception as exc:  # the class and text are what is compared
        return "raised", type(exc), str(exc)


@pytest.mark.parametrize("stamp", NEAR_MISS_STAMPS)
def test_a_near_miss_stamp_reads_as_parse_iso_reads_it(stamp):
    # alone, and among canonical stamps of its width, where the kernel sees it
    neighbours = [c for c in ("2024-06-01T12:00:00", "2024-06-01T12:00:00Z", "2024-06-01T12:00:00+00:00")
                  if len(c) == len(stamp)]
    for cells in ([stamp], neighbours * 3 + [stamp] + neighbours * 2):
        assert stamp_outcome(_iso_seconds, cells) == stamp_outcome(lambda cs: list(map(_parse_iso, cs)), cells)
