"""The rewritten hot path and CSV ingest against their references
(tests/reference.py), bitwise.

Floats are compared by their IEEE-754 bytes, so -0.0 differs from 0.0 and a
NaN matches only a NaN with the same payload. An input that the reference
rejects must be rejected with the same exception class and, for a RunFault,
the same kind.
"""

from __future__ import annotations

import csv
import io
import struct
import tempfile
import zlib
from contextlib import ExitStack
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from decimal import Decimal, localcontext
from itertools import count
from math import nextafter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import report_bytes
from pvsmooth.bus import FRAME_LOG_COLUMNS, SessionLog
from pvsmooth.config import SUPPLY_HARD_LIMIT_A, BatteryParams, ScenarioConfig, validate_scenario
from pvsmooth.controller import CONTROLLER_LOG_COLUMNS, LOST_ROW, SmoothingController
from pvsmooth.frames import (
    MSG_END,
    MSG_FAULT,
    MSG_SENSOR,
    MSG_SETPOINT,
    PAYLOAD_COUNTS,
    BusFrame,
    decode_frame,
    encode_frame,
)
from pvsmooth import ingest
from pvsmooth import run as pvrun
from pvsmooth.ingest import CHUNK_ROWS, IngestError, IngestSpec, _floats, ingest_csv, write_series_csv
from pvsmooth.plant import PLANT_TRACE_COLUMNS, battery_step, supply_apply
from pvsmooth.ramp import RampMetricError, warmup_skip_count
from pvsmooth.run import RunLogs, live_p_hat, write_controller_log, write_plant_trace
from pvsmooth.series import PowerSeries
from pvsmooth.util import AtomicWriter, Records

SUBNORMALS = (5e-324, -5e-324, 2.2250738585072009e-308, -1e-310)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def outcome(fn, *args):
    """("ok", result) or ("raised", exception class, RunFault kind or None)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the class and kind are what is compared
        return "raised", type(exc), getattr(exc, "kind", None)


# any 64-bit pattern, NaN payloads and signs included
any_double = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
edge_double = st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan"), *SUBNORMALS])
doubles = st.one_of(edge_double, any_double, st.floats(width=64))
seqs = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1))
times = st.one_of(st.sampled_from([0, 1, 2**64 - 1]), st.integers(0, 2**64 - 1))
msg_types = st.sampled_from([MSG_SENSOR, MSG_SETPOINT, MSG_END, MSG_FAULT])


@st.composite
def frames(draw):
    kind = draw(msg_types)
    values = tuple(draw(doubles) for _ in range(PAYLOAD_COUNTS[kind]))
    return BusFrame(kind, draw(seqs), draw(times), values)


def frame_fields(frame) -> tuple:
    return frame.msg_type, frame.seq, frame.sim_time_ms, tuple(bits(v) for v in frame.values)


def same_decode(data: bytes) -> None:
    got, want = outcome(decode_frame, data), outcome(ref.decode_frame, data)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert type(got[1]) is BusFrame
        assert frame_fields(got[1]) == frame_fields(want[1])
    else:
        assert got == want


# --- codec ------------------------------------------------------------------


@given(frame=frames())
@settings(max_examples=400)
def test_codec_round_trip_matches_reference(frame):
    data = encode_frame(frame)
    assert data == ref.encode_frame(frame)
    assert frame_fields(decode_frame(data)) == frame_fields(frame)
    same_decode(data)


@given(
    kind=st.sampled_from([MSG_SENSOR, MSG_SETPOINT, MSG_END, MSG_FAULT, 0x00, 0x05, 0x99]),
    n_values=st.integers(0, 3),
    seq=st.one_of(seqs, st.sampled_from([-1, 2**32, 2**40])),
    t=st.one_of(times, st.sampled_from([-1, 2**64, 2**70])),
)
@settings(max_examples=300)
def test_encode_rejects_what_the_reference_rejects(kind, n_values, seq, t):
    frame = BusFrame(kind, seq, t, (1.5,) * n_values)
    got, want = outcome(encode_frame, frame), outcome(ref.encode_frame, frame)
    assert got == want


@given(data=st.binary(max_size=64))
@settings(max_examples=500)
def test_decode_of_arbitrary_bytes_matches_reference(data):
    same_decode(data)


@given(frame=frames(), bit=st.integers(0, 40 * 8 - 1))
@settings(max_examples=400)
def test_decode_of_a_bit_flip_matches_reference(frame, bit):
    data = bytearray(encode_frame(frame))
    assume(bit < len(data) * 8)
    data[bit // 8] ^= 1 << (bit % 8)
    same_decode(bytes(data))


@pytest.mark.parametrize("kind", [MSG_SENSOR, MSG_SETPOINT, MSG_END, MSG_FAULT])
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_decode_matches_the_decode_by_length_on_every_flip_and_cut(kind, data):
    # the per-type fast path against the decode it replaced, on one frame of
    # the type intact, with each single bit flipped, with each header bit
    # flipped under a recomputed crc, and cut at each length: the same
    # BusFrame (values bitwise), or the same error class and text
    values = tuple(data.draw(doubles) for _ in range(PAYLOAD_COUNTS[kind]))
    frame = BusFrame(kind, data.draw(seqs), data.draw(times), values)
    intact = encode_frame(frame)
    flips = []
    for bit in range(len(intact) * 8):
        flipped = bytearray(intact)
        flipped[bit // 8] ^= 1 << (bit % 8)
        flips.append(bytes(flipped))
        if bit < 20 * 8:
            body = flipped[:-4]
            flips.append(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    for wire in [intact, *flips, *(intact[:cut] for cut in range(len(intact)))]:
        got, want = decode_or_error(decode_frame, wire), decode_or_error(ref.decode_frame_by_length, wire)
        assert got == want, wire.hex()


def decode_or_error(decode, data: bytes) -> tuple:
    """A decoded frame's type, fields and value bits, or its error's class and text."""
    try:
        frame = decode(data)
    except Exception as exc:
        return type(exc), str(exc)
    return type(frame), frame_fields(frame)


@given(frame=frames(), cut=st.integers(0, 40), tail=st.binary(max_size=8))
@settings(max_examples=300)
def test_decode_of_a_truncated_or_extended_frame_matches_reference(frame, cut, tail):
    data = encode_frame(frame)
    same_decode(data[:cut])
    same_decode(data + tail)


@given(frame=frames(), offset=st.integers(0, 19), byte=st.integers(0, 255))
@settings(max_examples=400)
def test_decode_of_a_resigned_header_matches_reference(frame, offset, byte):
    # a changed header byte under a recomputed crc reaches the type and
    # payload-shape checks that follow the crc check
    body = bytearray(encode_frame(frame)[:-4])
    body[offset] = byte
    same_decode(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))


# --- battery ----------------------------------------------------------------


@st.composite
def battery_params(draw):
    nominal = draw(st.floats(20.0, 60.0))
    soc_min = draw(st.sampled_from([0.0, 0.1, 0.2]))
    return BatteryParams(
        capacity_wh=draw(st.sampled_from([2400.0, 1.0, 1e9])),
        nominal_voltage_v=nominal,
        v_min_v=nominal * 0.9,
        v_max_v=nominal * 1.1,
        internal_resistance_ohm=draw(st.sampled_from([0.0, 0.05, 0.3])),
        current_limit_a=draw(st.sampled_from([55.0, 20.0, 100.0, 5e-324])),
        soc_min=soc_min,
        soc_max=draw(st.sampled_from([0.8, 0.9, 1.0])),
        soc_init=0.5,
        coulombic_efficiency=draw(st.sampled_from([1.0, 0.95, 0.8])),
        voltage_model=draw(st.sampled_from(["constant", "linear_ocv"])),
        enforce_soc_limits=draw(st.booleans()),
    )


@given(p=battery_params(), data=st.data())
@settings(max_examples=500)
def test_battery_step_matches_reference_bitwise(p, data):
    limit = p.current_limit_a
    current = data.draw(
        st.one_of(
            st.sampled_from([limit, -limit, 55.0, -55.0, 0.0, -0.0, *SUBNORMALS, float("nan"), float("inf")]),
            st.floats(-2 * limit - 60.0, 2 * limit + 60.0),
        )
    )
    soc = data.draw(
        st.one_of(st.sampled_from([p.soc_min, p.soc_max, 0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
    )
    dt = data.draw(st.sampled_from([5.0, 1.0, 3600.0, 1e6, 0.0, -5.0]))
    state = ref.BatteryState(soc=soc, v_terminal_v=ref.open_circuit_voltage(p, soc))
    got = outcome(battery_step, soc, p, current, dt)
    want = outcome(ref.battery_step, state, p, current, dt)
    assert got[0] == want[0]
    if got[0] == "raised":
        assert got == want
        return
    new_soc, v, i, clamps = got[1]
    b = want[1]
    assert (bits(new_soc), bits(v), bits(i), clamps) == (
        bits(b.soc), bits(b.v_terminal_v), bits(b.i_applied_a), b.clamp_events,
    )


CLAMP_EDGES = (0.0, -0.0, 20.0, -20.0, 55.0, -55.0, 500.0, *SUBNORMALS, float("inf"), float("-inf"), float("nan"))


def test_clamps_match_reference_on_every_pair_of_edges():
    for current in CLAMP_EDGES:
        for limit in CLAMP_EDGES:
            assert bits(supply_apply(current, limit)) == bits(ref.supply_apply(current, limit))
            p = BatteryParams(current_limit_a=limit, enforce_soc_limits=False)
            got = outcome(battery_step, 0.5, p, current, 5.0)
            want = outcome(ref.battery_step, ref.initial_battery_state(p), p, current, 5.0)
            assert got[0] == want[0]
            if got[0] == "ok":
                assert bits(got[1][2]) == bits(want[1].i_applied_a), (current, limit)


@given(
    current=st.one_of(edge_double, st.floats(width=64), st.sampled_from([55.0, -55.0, 20.0, -20.0])),
    limit=st.one_of(
        st.sampled_from([SUPPLY_HARD_LIMIT_A, 20.0, 500.0, 0.0, -0.0, float("nan")]),
        st.floats(0.0, 100.0),
    ),
)
@settings(max_examples=500)
def test_supply_apply_matches_reference_bitwise(current, limit):
    assert bits(supply_apply(current, limit)) == bits(ref.supply_apply(current, limit))


# --- controller ---------------------------------------------------------------


@given(
    n=st.integers(1, 8),
    steps=st.lists(
        st.tuples(
            st.one_of(st.floats(0.0, 3000.0), st.sampled_from([0.0, -0.0, 5e-324, 1e300])),
            st.one_of(st.floats(0.5, 100.0), edge_double, st.sampled_from([-5.0, 53.0])),
        ),
        min_size=1,
        max_size=60,
    ),
)
@settings(max_examples=300)
def test_controller_matches_reference_across_resyncs(n, steps):
    # up to 60 steps on windows of 1 to 8 samples: every run crosses the
    # k % n == 0 recomputation of the running sum several times
    new, old = SmoothingController(n), ref.SmoothingController(n)
    for p_pv, v_batt in steps:
        p_hat, p_batt, i_set, fault = new.step(p_pv, v_batt)
        out = old.step(p_pv, v_batt)
        assert (bits(p_hat), bits(p_batt), bits(i_set), fault) == (
            bits(out.p_hat_w), bits(out.p_batt_w), bits(out.i_set_a), out.fault,
        )
        assert bits(new.running_sum) == bits(old.state.running_sum)
        assert new.k == old.state.k
    assert new.p_buf.tobytes() == old.state.p_buf.tobytes()


def test_controller_rejects_non_finite_power_like_reference():
    for p_pv in (float("nan"), float("inf"), float("-inf")):
        new, old = SmoothingController(4), ref.SmoothingController(4)
        assert outcome(new.step, p_pv, 50.0) == outcome(old.step, p_pv, 50.0) == ("raised", ValueError, None)
        assert new.k == old.state.k == 1


periods = st.one_of(st.sampled_from([5.0, 1.0, 0.1, 60.0, 3.7]), st.floats(1e-3, 1e3))


@st.composite
def warmups(draw, period):
    """Warm-up spans: none, negative, below 1e-9 s, exact multiples of the
    period and points between them."""
    m = draw(st.integers(0, 400))
    return draw(
        st.one_of(
            st.sampled_from([0.0, -0.0, -period, 5e-324, 1e-10, 9.99e-10]),
            st.floats(0.0, 1e-9),
            st.just(m * period),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(lambda f: (m + f) * period),
            st.floats(0.0, 1e7),
        )
    )


@given(
    n_rates=st.integers(0, 500),
    period=periods,
    stride=st.one_of(st.integers(1, 30), st.integers(1, 10**7)),
    sliding=st.booleans(),
    data=st.data(),
)
@settings(max_examples=300)
def test_warmup_skip_count_matches_the_point_loop(n_rates, period, stride, sliding, data):
    warmup_s = data.draw(warmups(period))
    interval = stride * period
    args = (n_rates, warmup_s, period, interval)
    assert warmup_skip_count(*args, sliding=sliding) == ref.warmup_skip_count(*args, sliding=sliding)


class NoWriter:
    """A LogWriter that takes every block and writes nothing."""

    def send(self, table_id, table, wire=None):
        pass


def controller_log(p_hat: np.ndarray, lost: np.ndarray) -> Records:
    """Controller-log rows that pass the run's checks: p_hat per sample,
    and LOST_ROW (k=0) for each lost one."""
    log = Records(CONTROLLER_LOG_COLUMNS)
    k = 0
    for p, is_lost in zip(p_hat.tolist(), lost.tolist()):
        if is_lost:
            log.rows += log.layout.pack(*LOST_ROW)
            continue
        k += 1
        p_pv = p + 10.0 * (k % 7)
        log.rows += log.layout.pack(k, p_pv, 48.0, p, p_pv - p, (p_pv - p) / 48.0, False, False)
    return log


def streamed_smoothed_reports(cfg, series, log: Records, block: int):
    """RunLogs' smoothed reports of log, handed to it in blocks of `block` rows."""
    logs = RunLogs(cfg, NoWriter())
    rows, size = log.rows, log.layout.size
    for start in range(0, len(log), block):
        piece = Records(CONTROLLER_LOG_COLUMNS)
        piece.rows += rows[start * size : (start + block) * size]
        piece.start = start
        logs.controller_block(piece)
    return logs.smoothed_reports(series)


@given(
    period=st.sampled_from([0.1, 0.5, 1.0, 3.3, 5.0]),
    stride=st.integers(1, 40),
    n_window=st.integers(1, 400),
    nudge=st.sampled_from([0.0, 0.9e-9, -0.9e-9]),
    n=st.integers(1, 700),
    lost_p=st.sampled_from([0.0, 0.05, 0.5]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_smoothed_reports_from_evaluation_points_equal_the_whole_p_hat_reports(
    period, stride, n_window, nudge, n, lost_p, seed, data
):
    # both intervals are whole multiples of the period, as a valid scenario
    # needs, give or take the 1e-9 of the period that validation forgives
    cfg = validate_scenario(
        ScenarioConfig(sample_period_s=period, window_s=(n_window + nudge) * period, rr_interval_s=(stride - nudge) * period)
    )
    block = data.draw(st.integers(1, 3 * stride + 5).filter(lambda b: stride == 1 or b % stride), label="block")
    rng = np.random.default_rng(seed)
    log = controller_log(rng.uniform(0.0, 3000.0, n), rng.random(n) < lost_p)
    series = PowerSeries(np.zeros(n), period, 3000.0, start_time_s=float(seed % 1000))
    try:
        want = ref.smoothed_reports(live_p_hat(log), series, cfg)
    except RampMetricError as exc:
        with pytest.raises(RampMetricError) as got:
            streamed_smoothed_reports(cfg, series, log, block)
        assert str(got.value) == str(exc)
        return
    got = streamed_smoothed_reports(cfg, series, log, block)
    assert list(map(report_bytes, got)) == list(map(report_bytes, want))


def test_smoothed_reports_of_too_few_live_samples_name_the_live_count():
    # 13 rows, one lost: 12 live samples do not cover one 12-sample interval
    cfg = validate_scenario(ScenarioConfig())
    lost = np.zeros(13, dtype=bool)
    lost[4] = True
    log = controller_log(np.full(13, 500.0), lost)
    series = PowerSeries(np.zeros(13), 5.0, 3000.0)
    with pytest.raises(RampMetricError, match=r"^series of 12 samples does not cover one 60.0 s evaluation interval$"):
        ref.smoothed_reports(live_p_hat(log), series, cfg)
    with pytest.raises(RampMetricError, match=r"^series of 12 samples does not cover one 60.0 s evaluation interval$"):
        streamed_smoothed_reports(cfg, series, log, 5)


JUNK_CELLS = ("", "abc", " ", "a,b;c", 'say "hi"', "two\nlines", "nan", "-", "\u00e9t\u00e9")
GOOD_POWER_CELLS = (
    "0", "-0.0", "1500", " 7.25 ", "7.5\n", "5e-324", "2.2250738585072009e-308", "3000", "\uff17\uff15", "+5", ".5"
)
BAD_POWER_CELLS = (
    "-3.5", "-5e-324", "1e400", "-1e400", "1_000", "inf", "-inf", "nan", "3000.0000000000005", "", "abc", "1,5"
)
UTC_PLUS_2, UTC_MINUS_530 = timezone(timedelta(hours=2)), timezone(-timedelta(hours=5, minutes=30))


@st.composite
def time_cells(draw, t, fmt, messy):
    """A stamp for epoch time t, written in one of the ways the format
    allows; or, in a messy file, sometimes junk."""
    if messy and draw(st.booleans()) and draw(st.booleans()):
        return draw(st.sampled_from(JUNK_CELLS))
    if fmt == "epoch_s":
        return draw(st.sampled_from(["{!r}", " {!r} ", "{!r}\n", "{:.3f}", "{:e}"])).format(t)
    dt = datetime.fromtimestamp(t, tz=draw(st.sampled_from([timezone.utc, UTC_PLUS_2, UTC_MINUS_530])))
    stamp = dt.isoformat(sep=draw(st.sampled_from(["T", " "])), timespec=draw(st.sampled_from(["auto", "milliseconds"])))
    shape = draw(st.sampled_from(["as_is", "naive", "zulu", "padded"]))
    if shape == "naive":
        return stamp[:-6]
    if shape == "zulu":
        return stamp.replace("+00:00", "Z")
    return f"  {stamp}\t" if shape == "padded" else stamp


@st.composite
def csv_files(draw):
    """A CSV text and the IngestSpec fields to read it with. Every file may
    have blank and long rows, duplicate header names, quoted cells with
    newlines and delimiters, gaps in time, signed zeros and subnormals. A
    messy file adds junk and missing cells, a missing column, repeats and
    disorder in time, and bad or negative powers. A plain file keeps to
    plain cells and full rows, so the byte path reads it."""
    messy = draw(st.booleans())
    plain = not messy and draw(st.booleans())
    cells = (lambda strategy: strategy.filter(plain_cell)) if plain else (lambda strategy: strategy)
    fmt = draw(st.sampled_from(["epoch_s", "iso8601"]))
    delimiter = draw(st.sampled_from([",", ";"]))
    period = draw(st.sampled_from([1.0, 5.0, 0.5]))
    t0 = draw(st.sampled_from([0.0, 1717243200.0, 1717243200.25, 86399.5]))
    n = draw(st.integers(0, 25))
    order = draw(st.sampled_from(["uniform", "gaps", "any"] if messy else ["uniform", "gaps"]))
    if order == "uniform":
        ks = list(range(n))
    elif order == "gaps":
        ks = sorted(set(draw(st.lists(st.integers(0, 60), max_size=n))))
    else:
        ks = draw(st.lists(st.integers(0, 30), max_size=n))
    header = draw(st.permutations(["t", "p"] + draw(st.lists(st.sampled_from(["x", "t", "p", " t"]), max_size=3))))
    if messy and draw(st.booleans()) and draw(st.booleans()) and draw(st.booleans()):
        header.remove(draw(st.sampled_from(["t", "p"])))  # a column missing
    clamp_negative = draw(st.booleans())
    powers = st.sampled_from(GOOD_POWER_CELLS + (("-3.5", "-0.5\n") if clamp_negative else ()))
    if messy:
        powers = st.one_of(powers, st.sampled_from(BAD_POWER_CELLS), st.floats().map(repr))
    powers = st.one_of(powers, st.floats(0.0, 3000.0).map(repr))
    rows = [header]
    for k in ks:
        row = []
        for name in header:
            if name == "t":
                row.append(draw(cells(time_cells(t0 + k * period, fmt, messy))))
            else:
                row.append(draw(cells(powers if name == "p" else st.sampled_from(JUNK_CELLS))))
        shape = "full" if plain else draw(st.sampled_from(["full", "full", "full", "long", "blank_before"] + ["short"] * messy))
        if shape == "short":
            row = row[: draw(st.integers(0, len(row)))]
        elif shape == "long":
            row += draw(st.lists(st.sampled_from(JUNK_CELLS), min_size=1, max_size=3))
        elif shape == "blank_before":
            rows.append([])
        rows.append(row)
    buf = io.StringIO()
    line_ends = ["\n", "\r\n"] + ["\r"] * (not plain)
    csv.writer(buf, delimiter=delimiter, lineterminator=draw(st.sampled_from(line_ends))).writerows(rows)
    text = draw(file_endings(buf.getvalue()))
    empty = messy and draw(st.booleans()) and draw(st.booleans()) and draw(st.booleans())
    resample = draw(st.sampled_from(["none", "zero_order_hold"]))
    spec = {
        "time_column": "t",
        "power_column": "p",
        "timestamp_format": fmt,
        "resample": resample,
        "sample_period_s": period if resample == "zero_order_hold" or draw(st.booleans()) else None,
        "clamp_negative": clamp_negative,
        "rated_power_w": draw(st.sampled_from([None, 3000.0])),
        "delimiter": delimiter,
    }
    return "" if empty else text, spec


def plain_cell(cell: str) -> bool:
    """A cell that csv.writer writes as it is, which the byte path splits."""
    return cell.isascii() and not any(c in cell for c in '"\r\n,;')


@st.composite
def file_endings(draw, text):
    """The text as written, or without its last line end, or after a byte order mark."""
    if draw(st.booleans()):
        text = text.removesuffix("\n").removesuffix("\r")
    return "\ufeff" + text if draw(st.booleans()) else text


def ingest_outcome(ingest, spec):
    """The ingested series and counts, bitwise; or the IngestError's list;
    or another exception's class and text."""
    try:
        r = ingest(spec)
    except IngestError as exc:
        return "rejected", exc.errors
    except Exception as exc:  # the class and text are what is compared
        return "raised", type(exc), str(exc)
    s = r.series
    floats = (s.sample_period_s, s.start_time_s, s.rated_power_w)
    return "ok", s.samples.tobytes(), tuple(map(bits, floats)), r.rows_read, r.clamped_count, r.gaps_filled


def assert_ingest_matches_reference(text, fields):
    """The package reads the text as the reference reads it; a file after a
    byte order mark as the reference reads the file without one."""
    with tempfile.TemporaryDirectory() as tmp:
        path, plain = Path(tmp) / "pv.csv", Path(tmp) / "plain.csv"
        path.write_text(text, encoding="utf-8", newline="")
        plain.write_text(text.removeprefix("\ufeff"), encoding="utf-8", newline="")
        spec = IngestSpec(path=str(path), **fields)
        new, old = ingest_outcome(ingest_csv, spec), ingest_outcome(ref.ingest_csv, replace(spec, path=str(plain)))
        if old[0] == "rejected":  # the messages name the file read
            old = (old[0], [e.replace(str(plain), str(path)) for e in old[1]])
    if old[:2] == ("raised", AttributeError):
        # the reference crashes on an ISO-8601 row lacking its time cell;
        # the package reports the row (test_a_row_lacking_its_time_cell_is_a_row_error)
        assert new[0] == "rejected" and any(e.endswith(": unparseable time None") for e in new[1]), new
        return
    assert new == old


@given(case=csv_files())
@settings(max_examples=400, deadline=None)
def test_ingest_matches_reference_bitwise(case):
    assert_ingest_matches_reference(*case)


# rows that a chunk of good rows must read as the reference does, next to a chunk boundary;
# the first six leave the file readable (a negative power when clamp_negative is set)
SPECIAL_ROWS = (
    "blank", "multi_line", "other_stamp", "negative", "quoted", "non_ascii", "bad_time", "bad_power", "non_finite", "short"
)
NEAR_MISS_TIMES = ("2024-06-31T00:00:00Z", "2100-02-29T00:00:00Z", "2024-06-01T24:00:00Z", "abc", "", "1e400x")


@st.composite
def chunked_csv_files(draw):
    """A CSV text of at least three ingest chunks and the IngestSpec fields
    to read it with: a drawn pattern of rows repeated, and special rows
    placed on both sides of chunk boundaries. Stamps are whole seconds, so
    ISO-8601 chunks of good rows go through the stamp kernel. A plain file
    keeps to plain cells and special rows, so the byte path reads it unless
    a power is negative without clamp_negative."""
    fmt = draw(st.sampled_from(["epoch_s", "iso8601"]))
    suffix = draw(st.sampled_from(["Z", "+00:00", ""]))
    period = draw(st.sampled_from([1.0, 5.0]))
    t0 = draw(st.sampled_from([1717243200.0, 951782399.0, 4107542395.0]))  # into 29 Feb 2000; into 1 Mar 2100
    plain = draw(st.booleans())  # plain cells, and special rows that keep the file plain
    power_cells = st.one_of(st.sampled_from(GOOD_POWER_CELLS), st.floats(0.0, 3000.0).map(repr))
    powers = draw(st.lists(power_cells.filter(plain_cell) if plain else power_cells, min_size=1, max_size=7))
    dropped = [False] + draw(st.lists(st.booleans(), max_size=4))  # which rows of each cycle are left out
    n = draw(st.integers(3 * CHUNK_ROWS + 3, 3 * CHUNK_ROWS + 200))
    header = draw(st.permutations(["t", "p", "x"]))

    def stamp(t):
        if fmt == "epoch_s":
            return repr(t)
        return datetime.fromtimestamp(t, tz=timezone.utc).replace(tzinfo=None).isoformat() + suffix

    rows = []
    for i in count():
        if len(rows) == n:
            break
        if i and dropped[i % len(dropped)]:
            continue
        cells = {"t": stamp(t0 + i * period), "p": powers[i % len(powers)], "x": "x"}
        rows.append([cells[name] for name in header])
    kinds = ("other_stamp", "negative") if plain else SPECIAL_ROWS if draw(st.booleans()) else SPECIAL_ROWS[:6]
    specials = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 2), st.sampled_from(kinds)),
                             min_size=1, max_size=8, unique_by=lambda special: special[:2]))
    # from the last position back, so that an inserted blank row moves no later one
    for boundary, offset, kind in sorted(specials, reverse=True):
        at = boundary * CHUNK_ROWS + offset
        row = rows[at]
        t, p = header.index("t"), header.index("p")
        if kind == "bad_time":
            row[t] = draw(st.sampled_from(NEAR_MISS_TIMES))
        elif kind == "bad_power":
            row[p] = draw(st.sampled_from(["abc", "", "1_0_", "--1"]))
        elif kind == "negative":
            row[p] = draw(st.sampled_from(["-3.5", "-5e-324"]))
        elif kind == "non_finite":
            row[p] = draw(st.sampled_from(["inf", "nan", "-1e400"]))
        elif kind == "blank":
            rows.insert(at, [])
        elif kind == "short":
            rows[at] = row[: draw(st.integers(0, 2))]
        elif kind == "quoted":
            row[header.index("x")] = draw(st.sampled_from(['say "hi"', "a,b"]))
        elif kind == "non_ascii":
            row[header.index("x")] = draw(st.sampled_from(["\u00e9", "\u2014", "\U0001f600"]))
        elif kind == "multi_line":
            row[header.index("x")] = draw(st.sampled_from(["two\nlines", "a\r\nb", "c\rd", "\n\r\n"]))
            if draw(st.booleans()):
                row[t] += "\n"  # a stamp still, once stripped
        elif fmt == "iso8601":  # other_stamp: the same time, but not in the kernel's form
            row[t] = row[t].replace("T", " ") if draw(st.booleans()) else " " + row[t]
        else:
            row[t] = f" {row[t]} "
    buf = io.StringIO()
    csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"]))).writerows([header] + rows)
    resample = draw(st.sampled_from(["none", "zero_order_hold"]))
    return draw(file_endings(buf.getvalue())), {
        "time_column": "t",
        "power_column": "p",
        "timestamp_format": fmt,
        "resample": resample,
        "sample_period_s": period if resample == "zero_order_hold" else None,
        "clamp_negative": draw(st.booleans()),
        "rated_power_w": 3000.0,
    }


@pytest.mark.parametrize(
    "text", ['t,p\n0,"1\n2\n', 't,p\n0,"x\n', 't,p\n"0\n', 't,p\n0,1\n5,"2\n3', 't,p\n0,1\n5,"2\r\n\r\n']
)
def test_ingest_of_a_quote_left_open_at_the_end_matches_reference(text):
    # the open quote holds the file's last line break, so the last row spans
    # one line fewer than its cells say
    assert_ingest_matches_reference(text, {"time_column": "t", "power_column": "p"})


@given(case=chunked_csv_files())
@settings(max_examples=60, deadline=None)
def test_ingest_across_chunk_boundaries_matches_reference_bitwise(case):
    assert_ingest_matches_reference(*case)


@given(case=st.one_of(
    st.tuples(csv_files(), st.sampled_from([1, 8, 40])),
    st.tuples(chunked_csv_files(), st.sampled_from([600, 5000])),
))
@settings(max_examples=150, deadline=None)
def test_ingest_in_blocks_of_a_few_lines_matches_reference_bitwise(case):
    # every file spans many blocks of the byte path, so a block that is not
    # plain, or holds a row in error, may come after plain ones
    (text, fields), block_bytes = case
    with mock.patch.object(ingest, "BLOCK_BYTES", block_bytes):
        assert_ingest_matches_reference(text, fields)


# --- number columns --------------------------------------------------------------

NUMBER_EDGES = (
    "-0", "-0.0", " -0", "-0 ", "0e0", "-0e0", "0e-0", "+5", ".5", "5.", "1_0", "0x10", "true", "null", "nan",
    "1e999", "1e-999", "-", "e5", "1e", "1.e5", "01", "1 2", "", " ", "1e+308", "1.7976931348623159e308",
    *map(str, (2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 10**25, 18446744073709551616 * 3)),
)


@st.composite
def midpoints(draw):
    """The decimal halfway between a double and the next one up, exactly or
    moved by a relative 1e-60 either way, and maybe with 400 zeros more:
    where rounding is hardest."""
    x = draw(st.floats(min_value=0.0, max_value=1.7e308))
    with localcontext() as ctx:
        ctx.prec = 1200
        mid = (Decimal(x) + Decimal(nextafter(x, float("inf")))) / 2
        mid = (mid + mid * draw(st.sampled_from([0, 1, -1])) * Decimal("1e-60")).normalize()
    _, digits, exponent = mid.as_tuple()
    exponent += len(digits) - 1
    digits = "".join(map(str, digits)) + draw(st.sampled_from(["", "0" * 400]))
    return f"{digits[0]}.{digits[1:]}e{exponent}"


def long_decimals(digits):
    """A decimal of 400 digits, with a point among them or an exponent after."""
    return st.builds(
        lambda d, cut, exp: f"{d[:cut]}.{d[cut:]}" if exp is None else f"{d}e{exp}",
        digits.map(str), st.integers(0, 400), st.one_of(st.none(), st.integers(-760, 30)),
    )


number_cells = st.one_of(
    st.text(alphabet="0123456789.eE+- ", max_size=24),
    st.sampled_from(NUMBER_EDGES),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    midpoints(),
    long_decimals(st.integers(10**399, 10**400 - 1)),
)


def outcome_text(fn, *args):
    """("ok", result) or ("raised", exception class, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the class and text are what is compared
        return "raised", type(exc), str(exc)


@given(cells=st.lists(number_cells, max_size=8))
@settings(max_examples=1500, deadline=None)
def test_a_number_column_reads_as_float_reads_each_cell(cells):
    # orjson reads a column only where it gives float()'s bits; anywhere else
    # the column goes through float(), errors included
    def each(cells):
        return np.array([float(c) for c in cells], dtype=np.float64).tobytes()

    def parsed(cells):
        return _floats(cells).tobytes()

    assert outcome_text(parsed, cells) == outcome_text(each, cells)


@given(
    pattern=st.lists(st.sampled_from([0.0, -0.0, *SUBNORMALS[::2], 0.1, 2999.9999999999995, 3000.0]), min_size=1, max_size=9),
    repeat=st.integers(1, 120),  # up to 1080 lines, so several chunks
    start=st.sampled_from([0.0, 1717243200.0, 1717243200.25, 4102444800.123]),
    period=st.sampled_from([5.0, 0.1, 3.7]),
)
@settings(max_examples=60, deadline=None)
def test_write_series_csv_matches_reference_bytes(pattern, repeat, start, period):
    series = PowerSeries(pattern * repeat, period, 3000.0, start_time_s=start)
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        write_series_csv(series, new)
        ref.write_series_csv(series, old)
        assert new.read_bytes() == old.read_bytes()


# --- log formatters ---------------------------------------------------------------


def repeating_doubles(data):
    """Doubles that repeat: each is one of a small drawn pool or a fresh one,
    so equal bit patterns recur within a row, across tables and across blocks."""
    pool = data.draw(st.lists(doubles, min_size=1, max_size=6), label="pool")
    return st.one_of(st.sampled_from(pool), doubles)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_csv_logs_sharing_float_texts_match_a_repr_per_cell(tmp_path_factory, data):
    # a plant block and a controller block in turn, as the writer process
    # gets them
    cell = repeating_doubles(data)
    tmp = tmp_path_factory.mktemp("logs")
    logs = ((PLANT_TRACE_COLUMNS, write_plant_trace), (CONTROLLER_LOG_COLUMNS, write_controller_log))
    with ExitStack() as stack:
        tables = [
            (Records(spec), write, stack.enter_context(AtomicWriter(tmp / f"{i}.csv")), [])
            for i, (spec, write) in enumerate(logs)
        ]
        start = 0
        for _ in range(data.draw(st.integers(1, 4), label="blocks")):
            rows = data.draw(st.integers(0, 8), label="rows")
            repeat = data.draw(st.integers(1, 40), label="repeat")  # up to 320 rows
            for table, write, out, want in tables:
                columns = []
                for name, code in zip(table.names, table.layout.format[1:]):
                    if name == "k":
                        columns.append(range(start + 1, start + 1 + rows * repeat))
                    elif code == "d":
                        columns.append(data.draw(st.lists(cell, min_size=rows, max_size=rows)) * repeat)
                    else:
                        columns.append(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)) * repeat)
                table.rows[:] = b"".join(table.layout.pack(*row) for row in zip(*columns))
                table.start = start
                write(table, out)
                want.append(ref.csv_bytes(table))
            start += rows * repeat
    for i, (*_, want) in enumerate(tables):
        assert (tmp / f"{i}.csv").read_bytes() == b"".join(want)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_hex_dump_tags_match_a_repr_per_time(data):
    cell = repeating_doubles(data)
    log = SessionLog()
    for _ in range(data.draw(st.integers(0, 30), label="frames")):
        log.wire += data.draw(st.binary(max_size=40))
        direction, seq, t_send, t_deliver = data.draw(st.tuples(st.integers(0, 1), seqs, cell, cell))
        log.frames.rows += log.frames.layout.pack(direction, seq, MSG_SENSOR, t_send, t_deliver, 0.0, len(log.wire))
    assert log.hexdump() == ref.hexdump(log)


def signed(values):
    return st.tuples(values, st.sampled_from([1.0, -1.0])).map(lambda v: v[0] * v[1])


# floats as the writer gets them: running-sum residues like the night's, the
# ones whose text repr writes (magnitudes in [1e-9, 1e-4), from 1e16 up, NaN
# and inf), and any double
writer_floats = st.one_of(
    signed(st.floats(1e-15, 1e-3)),
    signed(st.one_of(st.floats(1e-9, 1e-4, exclude_max=True), st.floats(min_value=1e16))),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    doubles,
)
writer_cells = {
    "d": writer_floats,
    "q": st.integers(-(2**63), 2**63 - 1),
    "b": st.integers(-128, 127),
}


@st.composite
def wire_bytes(draw):
    """A frame's bytes as the plant may log them: intact, with a bit
    flipped, cut short, or any bytes at all."""
    data = encode_frame(draw(frames()))
    how = draw(st.sampled_from(["intact", "flip", "cut", "any"]))
    if how == "flip":
        bit = draw(st.integers(0, 8 * len(data) - 1))
        return data[: bit // 8] + bytes([data[bit // 8] ^ 1 << bit % 8]) + data[bit // 8 + 1 :]
    if how == "cut":
        return data[: draw(st.integers(0, len(data) - 1))]
    return data if how == "intact" else draw(st.binary(max_size=40))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_the_writer_process_writes_a_repr_per_cell_and_per_time(tmp_path_factory, data):
    # plant, controller and frame blocks interleaved as a session streams
    # them, empty ones too, through the writer's loop; each file must equal
    # the text of a repr per value, block by block
    specs = {pvrun.PLANT: PLANT_TRACE_COLUMNS, pvrun.CONTROLLER: CONTROLLER_LOG_COLUMNS, pvrun.FRAMES: FRAME_LOG_COLUMNS}
    starts = dict.fromkeys(specs, 0)
    stream, want = [], {table_id: [] for table_id in specs}
    for _ in range(data.draw(st.integers(0, 8), label="blocks")):
        table_id = data.draw(st.sampled_from(list(specs)), label="table")
        n = data.draw(st.integers(0, 12), label="rows")
        log = SessionLog()
        table = log.frames if table_id == pvrun.FRAMES else Records(specs[table_id])
        for _ in range(n):
            if table_id == pvrun.FRAMES:
                log.wire += data.draw(wire_bytes())
                direction, seq, msg_type = data.draw(st.tuples(st.integers(0, 1), seqs, st.integers(-128, 127)))
                t_send, t_deliver, draw_ms = data.draw(st.tuples(writer_floats, writer_floats, writer_floats))
                row = (direction, seq, msg_type, t_send, t_deliver, draw_ms, len(log.wire))
            else:
                row = data.draw(st.tuples(*(writer_cells[code] for code in specs[table_id].values())))
            table.rows += table.layout.pack(*row)
        table.start = starts[table_id]
        starts[table_id] += n
        block = table.rows + (log.wire if table_id == pvrun.FRAMES else b"")
        stream.append(pvrun._HEADER.pack(table_id, n, table.start, len(block)) + block)
        want[table_id].append(ref.hexdump(log) if table_id == pvrun.FRAMES else ref.csv_bytes(table))
    stream.append(pvrun._HEADER.pack(pvrun._END, 0, 0, 0))
    tmp = tmp_path_factory.mktemp("writer")
    files = [AtomicWriter(tmp / name) for name in pvrun.STREAMED_FILES]
    pvrun._format_blocks(io.BufferedReader(io.BytesIO(b"".join(stream))), files)
    for table_id, out in enumerate(files):
        assert out.tmp.read_bytes() == b"".join(want[table_id]), pvrun.STREAMED_FILES[table_id]
        out.tmp.unlink()


# --- whole sessions against the step before each peer ran in a coroutine ------


def session_corruption(plan: dict[int, tuple]):
    """corrupt_s2c hook: outbound frame i is changed as plan[i] says: a
    flipped bit ("flip", bit), a re-signed power ("power", value) or a
    re-signed sequence number ("seq", seq), the last two under a valid CRC."""

    def corrupt(index: int, data: bytes) -> bytes:
        if index not in plan:
            return data
        kind, arg = plan[index]
        if kind == "flip":
            return data[: arg // 8] + bytes([data[arg // 8] ^ (1 << arg % 8)]) + data[arg // 8 + 1 :]
        frame = decode_frame(data)
        if kind == "power":
            return encode_frame(BusFrame(MSG_SENSOR, frame.seq, frame.sim_time_ms, (arg, frame.values[1])))
        return encode_frame(BusFrame(MSG_SENSOR, arg, frame.sim_time_ms, frame.values))

    return corrupt


@st.composite
def corruption_plans(draw, n: int):
    plan = {}
    for index in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)):
        plan[index] = draw(st.one_of(
            st.tuples(st.just("flip"), st.integers(0, 8 * 40 - 1)),
            st.tuples(st.just("power"), st.sampled_from([float("nan"), float("inf"), -0.0])),
            st.tuples(st.just("seq"), st.sampled_from([index, index + 2, index + 7, 0])),
        ))
    return plan


@given(
    n=st.integers(1, 80),
    window_s=st.sampled_from([5.0, 60.0, 600.0]),
    free_running=st.booleans(),
    latency_ms=st.sampled_from([0.0, 700.0, 4000.0, 9000.0]),
    jitter_share=st.sampled_from([0.0, 0.3, 1.0]),
    bits=st.sampled_from([None, 8, 12]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_session_matches_the_step_before_the_coroutines_bitwise(
    n, window_s, free_running, latency_ms, jitter_share, bits, seed, data
):
    # both modes on both transports: the plant trace, the controller log,
    # the frame records and wire bytes, and the RunFault that ends the
    # session (kind, step and words), with lost and re-signed sensor frames
    from pvsmooth.bus import ControllerPeer, PlantBoundary, SocketLink, drive
    from pvsmooth.config import QuantizationConfig, TransportConfig
    from pvsmooth.plant import PlantDriver, RunFault
    from pvsmooth.synth import synth_pv

    plan = data.draw(corruption_plans(n))
    transport = TransportConfig(
        mode="free_running" if free_running else "lockstep", latency_ms=latency_ms,
        jitter_ms=jitter_share * latency_ms, seed=seed,
        quantization=None if bits is None else QuantizationConfig(bits=bits),
    )
    cfg = validate_scenario(ScenarioConfig(window_s=window_s, seed=seed, transport=transport))
    series = synth_pv("cloud_random", n * 5.0, 5.0, 3000.0, seed=seed)
    for over_socket in (False, True):
        plant = PlantDriver(series, cfg)
        peer = ControllerPeer(cfg.n_window)
        boundary = PlantBoundary(cfg, series.rated_power_w, corrupt_s2c=session_corruption(plan))
        fault = None
        try:
            drive(plant, boundary, SocketLink(peer) if over_socket else peer, free_running)
        except RunFault as exc:
            fault = exc
        want_plant, want_controller, want_boundary, want_fault = ref.run_session_reference(
            series, cfg, session_corruption(plan), over_socket
        )
        assert bytes(plant.trace.rows) == bytes(want_plant.trace.rows)
        assert bytes(peer.driver.log.rows) == bytes(want_controller.log.rows)
        assert bytes(boundary.log.frames.rows) == bytes(want_boundary.log.frames.rows)
        assert bytes(boundary.log.wire) == bytes(want_boundary.log.wire)
        assert peer.driver.error_count == want_controller.error_count
        faults = [None if f is None else (f.kind, f.step, str(f)) for f in (fault, want_fault)]
        assert faults[0] == faults[1]
