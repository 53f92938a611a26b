"""Output checks made apart from pvsmooth.

Each check reads the finished artifact set back from disk and recomputes what
the files must hold from the input trace, the scenario and first principles:
frames are decoded with `struct` and `zlib`, moving averages come from a
pairwise window sum instead of the controller's running sum, SOC is replayed
by coulomb counting, ramp rates are taken from their definition. No check
compares against a stored copy of earlier output.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SUPPLY_HARD_LIMIT_A = 55.0
# The controller's running sum drifts by at most ~N * eps * |window sum| between
# its exact resyncs; for N = 360 and 3 kW samples that is below 1e-9 W.
MA_TOL_W = 1e-6
SOC_TOL = 1e-9
RR_TOL = 1e-9  # %/min

_HEADER = struct.Struct("<4sBBIQH")
_SENSOR, _SETPOINT, _END = 1, 2, 3


@dataclass(frozen=True)
class Expect:
    """What a run must have done, known without looking at its output."""

    samples: np.ndarray  # the ready input series, W
    rated_w: float
    period_s: float
    n_window: int
    rr_interval_s: float
    battery: object  # pvsmooth.config.BatteryParams
    supply_limit_a: float
    free_running: bool
    csv_rows: tuple[np.ndarray, np.ndarray] | None = None


class Frame(NamedTuple):
    direction: str
    tag_seq: int
    send_ms: float
    recv_ms: float
    msg_type: int
    seq: int
    values: tuple[float, ...]


def read_csv_columns(path: Path) -> dict[str, np.ndarray]:
    """Columns of a numeric CSV, parsed with Python's exact `float`."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    if not rows:
        return {name: np.empty(0) for name in header}
    return {
        name: np.array([float(v) for v in col], dtype=np.float64)
        for name, col in zip(header, zip(*rows))
    }


def parse_frames(path: Path) -> tuple[list[Frame], list[str]]:
    """Decode every `frames.hex` line; returns frames and decode problems."""
    frames, problems = [], []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            direction, seq_f, send_f, recv_f, hexpart = line.split(" ")
            data = bytes.fromhex(hexpart)
            tag_seq = int(seq_f.removeprefix("seq="))
            send_ms = float(send_f.removeprefix("send="))
            recv_ms = float(recv_f.removeprefix("recv="))
        except ValueError as exc:
            problems.append(f"frames.hex line {lineno}: unparseable ({exc})")
            continue
        if len(data) < 24:
            problems.append(f"frames.hex line {lineno}: {len(data)} bytes is shorter than a frame")
            continue
        magic, version, msg_type, seq, _t, plen = _HEADER.unpack_from(data)
        if magic != b"HESB" or version != 1 or len(data) != 24 + plen or plen % 8:
            problems.append(f"frames.hex line {lineno}: bad header")
            continue
        (crc,) = struct.unpack_from("<I", data, len(data) - 4)
        if crc != zlib.crc32(data[:-4]):
            problems.append(f"frames.hex line {lineno}: CRC mismatch")
            continue
        values = struct.unpack_from(f"<{plen // 8}d", data, 20)
        frames.append(Frame(direction, tag_seq, send_ms, recv_ms, msg_type, seq, values))
    return frames, problems


def _first_mismatch(a: np.ndarray, b: np.ndarray) -> int:
    return int(np.flatnonzero(a != b)[0])


def check_alignment(ctrl: dict, plant: dict, ex: Expect) -> list[str]:
    """Row k of each log carries input sample k, and the controller's voltage
    is the plant's previous one."""
    n = len(ex.samples)
    problems = []
    k_expected = np.arange(1, n + 1, dtype=np.float64)
    for name, log in (("controller_log", ctrl), ("plant_trace", plant)):
        if len(log["k"]) != n:
            problems.append(f"{name}: {len(log['k'])} rows for {n} input samples")
            continue
        if not np.array_equal(log["k"], k_expected):
            i = _first_mismatch(log["k"], k_expected)
            problems.append(f"{name}: row {i + 1} has k={log['k'][i]:g}")
    if problems:
        return problems
    for name, log in (("plant_trace", plant), ("controller_log", ctrl)):
        if not np.array_equal(log["p_pv_w"], ex.samples):
            i = _first_mismatch(log["p_pv_w"], ex.samples)
            problems.append(f"{name}: k={i + 1} p_pv_w is not input sample {i + 1}")
    b = ex.battery
    v0 = (
        b.v_min_v + (b.v_max_v - b.v_min_v) * b.soc_init
        if b.voltage_model == "linear_ocv"
        else b.nominal_voltage_v
    )
    v_sent = np.concatenate([[v0], plant["v_terminal_v"][:-1]])
    if not np.array_equal(ctrl["v_batt_v"], v_sent):
        i = _first_mismatch(ctrl["v_batt_v"], v_sent)
        problems.append(f"controller_log: k={i + 1} v_batt_v is not the plant's previous voltage")
    return problems


def zero_padded_mean(x: np.ndarray, n: int) -> np.ndarray:
    """Mean of the last n inputs with zeros before the start (pairwise sums)."""
    z = np.concatenate([np.zeros(n - 1), x])
    return sliding_window_view(z, n).sum(axis=1) / n


def check_moving_average(ctrl: dict, ex: Expect) -> list[str]:
    """p_hat is the zero-padded moving average of what the controller saw."""
    ref = zero_padded_mean(ctrl["p_pv_w"], ex.n_window)
    err = np.abs(ctrl["p_hat_w"] - ref)
    bad = np.flatnonzero(~(err <= MA_TOL_W))
    problems = []
    if bad.size:
        problems.append(
            f"controller_log: k={bad[0] + 1} p_hat_w off the moving average by {err[bad[0]]!r} W "
            f"({bad.size} rows beyond {MA_TOL_W} W)"
        )
    warm = np.arange(1, len(ref) + 1) <= ex.n_window
    if not np.array_equal(ctrl["warmup"] == 1.0, warm):
        problems.append("controller_log: warmup flag is not set on exactly the first N rows")
    return problems


def check_conservation(ctrl: dict) -> list[str]:
    """p_batt == p_pv - p_hat and i_set == p_batt / v_batt, bitwise."""
    problems = []
    diff = ctrl["p_pv_w"] - ctrl["p_hat_w"]
    if not np.array_equal(ctrl["p_batt_w"], diff):
        problems.append(f"controller_log: k={_first_mismatch(ctrl['p_batt_w'], diff) + 1} p_batt_w != p_pv_w - p_hat_w")
    ok = ctrl["fault"] == 0.0
    i_set = ctrl["p_batt_w"][ok] / ctrl["v_batt_v"][ok]
    if not np.array_equal(ctrl["i_set_a"][ok], i_set):
        problems.append("controller_log: i_set_a != p_batt_w / v_batt_v")
    if ok.sum() != len(ok):
        problems.append(f"controller_log: {len(ok) - int(ok.sum())} faulted rows")
    return problems


def check_battery(plant: dict, metrics: dict, ex: Expect) -> list[str]:
    """SOC replayed by coulomb counting, the SOC window, the current limits,
    and the realized-power and grid-power identities."""
    b = ex.battery
    problems = []
    i_app, i_req, soc = plant["i_applied_a"], plant["i_request_a"], plant["soc"]
    cap_as = 3600.0 * b.capacity_wh / b.nominal_voltage_v
    replay = np.empty(len(i_app))
    s = b.soc_init
    for k, i in enumerate(i_app.tolist()):
        eta = b.coulombic_efficiency if i >= 0 else 1.0 / b.coulombic_efficiency
        s += eta * i * ex.period_s / cap_as
        replay[k] = s
    err = np.abs(replay - soc)
    bad = np.flatnonzero(~(err <= SOC_TOL))
    if bad.size:
        problems.append(f"plant_trace: k={bad[0] + 1} soc off the coulomb-count replay by {err[bad[0]]!r}")
    if b.enforce_soc_limits and not ((soc >= b.soc_min) & (soc <= b.soc_max)).all():
        problems.append(f"plant_trace: soc leaves [{b.soc_min}, {b.soc_max}]")
    limit = min(ex.supply_limit_a, SUPPLY_HARD_LIMIT_A, b.current_limit_a)
    if not (np.abs(i_app) <= limit).all():
        problems.append(f"plant_trace: |i_applied_a| exceeds {limit} A")
    clamped = np.clip(i_req, -limit, limit)
    if not ((i_app == clamped) | (i_app == 0.0)).all():
        problems.append("plant_trace: i_applied_a is neither the clamped request nor a SOC block")
    realized = i_app * plant["v_terminal_v"]
    if not np.array_equal(plant["realized_p_batt_w"], realized):
        problems.append("plant_trace: realized_p_batt_w != i_applied_a * v_terminal_v")
    if not np.array_equal(plant["p_grid_w"], plant["p_pv_w"] - realized):
        problems.append("plant_trace: p_grid_w != p_pv_w - realized_p_batt_w")
    summary = metrics.get("soc", {})
    if len(soc) and (summary.get("min"), summary.get("max"), summary.get("final")) != (
        float(soc.min()), float(soc.max()), float(soc[-1])
    ):
        problems.append("metrics.json: soc summary disagrees with plant_trace")
    return problems


def ramp_rates(x: np.ndarray, ex: Expect) -> tuple[np.ndarray, np.ndarray]:
    """Evaluation sample indices and RR(t) = 100 dP / (dt_min * rated)."""
    stride = round(ex.rr_interval_s / ex.period_s)
    idx = np.arange(stride, len(x), stride)
    rr = np.array([100.0 * (x[i] - x[i - stride]) / ((ex.rr_interval_s / 60.0) * ex.rated_w) for i in idx.tolist()])
    return idx, rr


def check_ramps(raw_file: dict, smooth_file: dict, ctrl: dict, metrics: dict, ex: Expect) -> list[str]:
    """Rate files match the definition; the smoothed post-warm-up rate obeys
    the moving average's analytic bound 100*stride/N scaled by max/rated."""
    problems = []
    stride = round(ex.rr_interval_s / ex.period_s)
    series = {"raw": (ex.samples, raw_file), "smoothed": (ctrl["p_hat_w"], smooth_file)}
    recomputed = {}
    for name, (x, got) in series.items():
        idx, rr = ramp_rates(x, ex)
        recomputed[name] = (idx, rr)
        if len(got["t_s"]) != len(rr):
            problems.append(f"{name}_rates.csv: {len(got['t_s'])} points, definition gives {len(rr)}")
            continue
        if not np.array_equal(got["t_s"], idx * ex.period_s):
            problems.append(f"{name}_rates.csv: evaluation times are not multiples of the interval")
        err = np.abs(got["rr_pct_per_min"] - rr)
        if not (err <= RR_TOL).all():
            i = int(np.argmax(~(err <= RR_TOL)))
            problems.append(f"{name}_rates.csv: point {i} off the definition by {err[i]!r} %/min")
        rep = metrics.get("ramp", {}).get(name, {})
        if rep.get("n_points") != len(rr):
            problems.append(f"metrics.json: ramp.{name}.n_points is {rep.get('n_points')}, expected {len(rr)}")
    if problems:
        return problems
    idx, rr = recomputed["smoothed"]
    post = rr[idx - stride >= ex.n_window]
    dt_min = ex.rr_interval_s / 60.0
    bound = 100.0 * stride * float(ctrl["p_pv_w"].max()) / (ex.n_window * dt_min * ex.rated_w)
    worst = float(np.abs(post).max()) if post.size else 0.0
    if worst > bound * (1 + 1e-9):
        problems.append(f"smoothed max |RR| {worst!r} %/min after warm-up exceeds the bound {bound!r}")
    got = metrics.get("ramp", {}).get("smoothed_excluding_warmup", {}).get("max_abs_rr_pct_per_min")
    if got is None or abs(got - worst) > RR_TOL:
        problems.append(f"metrics.json: smoothed post-warm-up max |RR| {got!r}, recomputed {worst!r}")
    return problems


def check_frames(frames: list[Frame], ctrl: dict, plant: dict, ex: Expect) -> list[str]:
    """2n+1 frames; seq strictly increasing and delivery FIFO per direction;
    payloads are the values the controller logged (and, in lockstep, what
    the plant was asked for)."""
    n = len(ex.samples)
    problems = []
    if len(frames) != 2 * n + 1:
        problems.append(f"frames.hex: {len(frames)} frames, expected 2n+1 = {2 * n + 1}")
    by_dir = {"s2c": [f for f in frames if f.direction == "s2c"], "c2s": [f for f in frames if f.direction == "c2s"]}
    if len(by_dir["s2c"]) + len(by_dir["c2s"]) != len(frames):
        problems.append("frames.hex: a frame has an unknown direction tag")
    for name, fs in by_dir.items():
        seqs = np.array([f.seq for f in fs])
        if any(f.seq != f.tag_seq for f in fs):
            problems.append(f"frames.hex: {name} tag seq differs from the frame's seq")
        if len(seqs) > 1 and not (np.diff(seqs) > 0).all():
            problems.append(f"frames.hex: {name} seq not strictly increasing")
        recv = np.array([f.recv_ms for f in fs])
        send = np.array([f.send_ms for f in fs])
        if len(recv) > 1 and not (np.diff(recv) >= 0).all():
            problems.append(f"frames.hex: {name} delivery times are not FIFO")
        if not (recv >= send).all():
            problems.append(f"frames.hex: {name} frame delivered before it was sent")
    if problems:
        return problems
    s2c, c2s = by_dir["s2c"], by_dir["c2s"]
    if [f.msg_type for f in s2c] != [_SENSOR] * n + [_END] or [f.msg_type for f in c2s] != [_SETPOINT] * n:
        return ["frames.hex: message types are not n SENSOR + END and n SETPOINT"]
    p = np.array([f.values[0] for f in s2c[:n]])
    v = np.array([f.values[1] for f in s2c[:n]])
    i_set = np.array([f.values[0] for f in c2s])
    if not (np.array_equal(p, ctrl["p_pv_w"]) and np.array_equal(v, ctrl["v_batt_v"])):
        problems.append("frames.hex: sensor payloads differ from controller_log inputs")
    if not np.array_equal(i_set, ctrl["i_set_a"]):
        problems.append("frames.hex: setpoint payloads differ from controller_log i_set_a")
    if not ex.free_running and not np.array_equal(plant["i_request_a"], i_set):
        problems.append("plant_trace: i_request_a is not setpoint k")
    return problems


def held_setpoints(frames: list[Frame], n: int, period_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order hold of delivered setpoints, sampled at each plant tick.

    Returns the held value and the seq it came from (0 for the initial 0 A)
    at tick k * period, counting a delivery at exactly the tick as on time.
    """
    c2s = [f for f in frames if f.direction == "c2s"]
    held = np.zeros(n)
    held_seq = np.zeros(n, dtype=np.int64)
    j, value, seq = 0, 0.0, 0
    for k in range(1, n + 1):
        tick = k * period_s * 1000.0
        while j < len(c2s) and c2s[j].recv_ms <= tick:
            value, seq = c2s[j].values[0], c2s[j].seq
            j += 1
        held[k - 1], held_seq[k - 1] = value, seq
    return held, held_seq


def check_setpoint_replay(frames: list[Frame], plant: dict, ctrl: dict, ex: Expect) -> list[str]:
    """Free-running: i_request_a at step k is the latest setpoint delivered no
    later than tick k; some setpoints must arrive late for the workload to
    exercise the delay path."""
    held, held_seq = held_setpoints(frames, len(ex.samples), ex.period_s)
    problems = []
    if not np.array_equal(plant["i_request_a"], held):
        i = _first_mismatch(plant["i_request_a"], held)
        problems.append(f"plant_trace: k={i + 1} i_request_a is not the setpoint held at its tick")
    late = int(np.count_nonzero(held_seq != np.arange(1, len(held_seq) + 1)))
    if late == 0:
        problems.append("free-running run had no late setpoint; the delay path went unexercised")
    if np.array_equal(plant["p_grid_w"], ctrl["p_hat_w"]):
        problems.append("free-running grid power equals p_hat everywhere; late setpoints had no effect")
    return problems


def zero_order_hold(times_s: np.ndarray, power_w: np.ndarray, period_s: float) -> np.ndarray:
    """Grid from the first to the last row, each point holding the newest row."""
    t = times_s.tolist()
    p = power_w.tolist()
    n = int(math.floor((t[-1] - t[0]) / period_s + 1e-9)) + 1
    out = np.empty(n)
    j = 0
    for i in range(n):
        grid_t = t[0] + i * period_s
        while j + 1 < len(t) and t[j + 1] <= grid_t:
            j += 1
        out[i] = p[j]
    return out


def check_ingest(ex: Expect) -> list[str]:
    """The ingested grid is the zero-order hold of the rows the benchmark wrote."""
    ref = zero_order_hold(*ex.csv_rows, ex.period_s)
    if len(ex.samples) != len(ref):
        return [f"ingest: {len(ex.samples)} grid points, zero-order hold gives {len(ref)}"]
    if not np.array_equal(ex.samples, ref):
        return [f"ingest: grid point {_first_mismatch(ex.samples, ref)} differs from the zero-order hold"]
    return []


def check_run(out_dir: Path, ex: Expect) -> list[str]:
    """Every check on one finished run; returns all problems found."""
    out_dir = Path(out_dir)
    ctrl = read_csv_columns(out_dir / "controller_log.csv")
    plant = read_csv_columns(out_dir / "plant_trace.csv")
    metrics = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
    frames, problems = parse_frames(out_dir / "frames.hex")
    if ex.csv_rows is not None:
        problems += check_ingest(ex)
    aligned = check_alignment(ctrl, plant, ex)
    problems += aligned
    if aligned:
        return problems  # the remaining checks index rows by k
    problems += check_moving_average(ctrl, ex)
    problems += check_conservation(ctrl)
    problems += check_battery(plant, metrics, ex)
    problems += check_ramps(
        read_csv_columns(out_dir / "raw_rates.csv"),
        read_csv_columns(out_dir / "smoothed_rates.csv"),
        ctrl,
        metrics,
        ex,
    )
    problems += check_frames(frames, ctrl, plant, ex)
    if ex.free_running:
        problems += check_setpoint_replay(frames, plant, ctrl, ex)
    return problems
