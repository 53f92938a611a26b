"""The benchmark's checks pass on good runs and reject broken ones.

    python3 -m pytest perfbench -q

Each workload runs once on a short trace through the same `run_op` the
benchmark times. Then one artifact at a time is broken, or one run is made
to lose a frame, and the check that guards it must name the fault.
"""

from __future__ import annotations

import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import checks
import run as bench
import workloads
from pvsmooth import bus
from pvsmooth import run as pvrun


@pytest.fixture
def short_workloads(monkeypatch):
    """Shrink every workload to a few simulated hours."""
    monkeypatch.setattr(workloads, "MULTIDAY_DAYS", 0.125)
    monkeypatch.setattr(workloads, "CSV_DAYS", 0.5)


def keep_artifacts(monkeypatch, tmp_path: Path) -> tuple[Path, dict]:
    """Make run_op copy its artifact set aside before deleting it; the
    returned dict receives the Expect it checked against."""
    kept = tmp_path / "kept"
    seen: dict = {}
    real_check = bench.check_run

    def check_and_copy(out_dir, expect):
        shutil.copytree(out_dir, kept)
        seen["expect"] = expect
        return real_check(out_dir, expect)

    monkeypatch.setattr(bench, "check_run", check_and_copy)
    return kept, seen


def good_run(name: str, tmp_path: Path, monkeypatch) -> tuple[Path, checks.Expect]:
    kept, seen = keep_artifacts(monkeypatch, tmp_path)
    wl = workloads.prepare(name, 7, tmp_path / "in")
    result = bench.run_op(wl, tmp_path / "op")
    assert result.problems == []
    return kept, seen["expect"]


def edit_csv(path: Path, row: int, column: str, new_value) -> None:
    """Replace one cell (row counts from 0 after the header)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = new_value(float(cells[col])) if callable(new_value) else repr(new_value)
    lines[row + 1] = ",".join(str(c) for c in cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def problems_of(out: Path, ex: checks.Expect) -> str:
    return "\n".join(checks.check_run(out, ex))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_workload_passes_every_check(name, tmp_path, monkeypatch, short_workloads):
    out, ex = good_run(name, tmp_path, monkeypatch)
    assert checks.check_run(out, ex) == []


def test_lost_sensor_frame_is_flagged_as_misalignment(tmp_path, monkeypatch, short_workloads):
    def corrupt_frame_100(index: int, data: bytes) -> bytes:
        return data[:-1] + bytes([data[-1] ^ 0x01]) if index == 100 else data

    monkeypatch.setattr(
        pvrun, "run_session", lambda series, cfg, transport: bus.run_lockstep_inproc(series, cfg, corrupt_s2c=corrupt_frame_100)
    )
    kept, seen = keep_artifacts(monkeypatch, tmp_path)
    wl = workloads.prepare("multiday_inproc", 7, tmp_path / "in")
    result = bench.run_op(wl, tmp_path / "op")
    assert any("controller_log: row 101 has k=0" in p for p in result.problems)
    assert checks.check_run(kept, seen["expect"]) == result.problems


def test_moving_average_check_rejects_a_shifted_p_hat(tmp_path, monkeypatch, short_workloads):
    out, ex = good_run("multiday_inproc", tmp_path, monkeypatch)
    ctrl = out / "controller_log.csv"
    edit_csv(ctrl, 500, "p_hat_w", lambda v: repr(v + 0.01))
    cols = checks.read_csv_columns(ctrl)
    edit_csv(ctrl, 500, "p_batt_w", float(cols["p_pv_w"][500] - cols["p_hat_w"][500]))
    found = problems_of(out, ex)
    assert "k=501 p_hat_w off the moving average" in found
    assert "p_batt_w != p_pv_w - p_hat_w" not in found


def test_conservation_check_rejects_one_ulp(tmp_path, monkeypatch, short_workloads):
    out, ex = good_run("multiday_inproc", tmp_path, monkeypatch)
    edit_csv(out / "controller_log.csv", 800, "p_batt_w", lambda v: repr(float(np.nextafter(v, np.inf))))
    assert "k=801 p_batt_w != p_pv_w - p_hat_w" in problems_of(out, ex)


def test_soc_replay_rejects_a_drifted_soc(tmp_path, monkeypatch, short_workloads):
    out, ex = good_run("multiday_inproc", tmp_path, monkeypatch)
    edit_csv(out / "plant_trace.csv", 300, "soc", lambda v: repr(v + 1e-6))
    assert "k=301 soc off the coulomb-count replay" in problems_of(out, ex)


def test_soc_window_and_current_limit_are_enforced(tmp_path, monkeypatch, short_workloads):
    out, ex = good_run("multiday_inproc", tmp_path, monkeypatch)
    narrow = replace(ex.battery, soc_max=0.5000001)
    edit_csv(out / "plant_trace.csv", 10, "i_applied_a", 60.0)
    found = problems_of(out, replace(ex, battery=narrow))
    assert "soc leaves [0.1, 0.5000001]" in found
    assert "|i_applied_a| exceeds 55.0 A" in found


def test_rate_file_must_match_the_definition(tmp_path, monkeypatch, short_workloads):
    out, ex = good_run("multiday_inproc", tmp_path, monkeypatch)
    edit_csv(out / "smoothed_rates.csv", 40, "rr_pct_per_min", lambda v: repr(v + 1e-6))
    assert "smoothed_rates.csv: point 40 off the definition" in problems_of(out, ex)


def test_smoothed_ramp_bound_rejects_a_jump():
    x = np.full(2000, 1000.0)
    ex = checks.Expect(
        samples=x, rated_w=3000.0, period_s=5.0, n_window=360, rr_interval_s=60.0,
        battery=None, supply_limit_a=55.0, free_running=False,
    )
    p_hat = checks.zero_padded_mean(x, 360)
    p_hat[1500:] += 200.0  # a step no 30-minute average of these samples can take
    ctrl = {"p_pv_w": x, "p_hat_w": p_hat}
    files = {}
    for name, series in (("raw", x), ("smoothed", p_hat)):
        idx, rr = checks.ramp_rates(series, ex)
        files[name] = {"t_s": idx * 5.0, "rr_pct_per_min": rr}
    metrics = {"ramp": {"raw": {"n_points": len(files["raw"]["t_s"])},
                        "smoothed": {"n_points": len(files["smoothed"]["t_s"])}}}
    found = "\n".join(checks.check_ramps(files["raw"], files["smoothed"], ctrl, metrics, ex))
    assert "after warm-up exceeds the bound" in found


def _edit_frames(out: Path, edit) -> None:
    path = out / "frames.hex"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")


def test_frame_checks(tmp_path, monkeypatch, short_workloads):
    out, ex = good_run("multiday_inproc", tmp_path, monkeypatch)
    pristine = (out / "frames.hex").read_text(encoding="utf-8")

    def flip_hex(lines):
        tag, hexpart = lines[7].rsplit(" ", 1)
        lines[7] = f"{tag} {hexpart[:50]}{'0' if hexpart[50] != '0' else '1'}{hexpart[51:]}"
        return lines

    def swap_sensors(lines):
        lines[2], lines[4] = lines[4], lines[2]
        return lines

    def deliver_early(lines):
        tag, hexpart = lines[9].rsplit(" ", 1)
        head, _recv = tag.rsplit(" recv=", 1)
        lines[9] = f"{head} recv=-1.0 {hexpart}"
        return lines

    n = len(ex.samples)
    cases = [
        (flip_hex, "frames.hex line 8: CRC mismatch"),
        (lambda lines: lines[:-2] + lines[-1:], f"frames.hex: {2 * n} frames, expected 2n+1 = {2 * n + 1}"),
        (swap_sensors, "frames.hex: s2c seq not strictly increasing"),
        (deliver_early, "frames.hex: c2s frame delivered before it was sent"),
    ]
    for edit, message in cases:
        (out / "frames.hex").write_text(pristine, encoding="utf-8")
        _edit_frames(out, edit)
        assert message in problems_of(out, ex), message


def test_fifo_check_rejects_reordered_delivery(tmp_path, monkeypatch, short_workloads):
    out, ex = good_run("csv_free_running", tmp_path, monkeypatch)

    def swap_recv(lines):
        c2s = [i for i, line in enumerate(lines) if line.startswith("c2s")][100:102]
        recv = [lines[i].split(" ")[3] for i in c2s]
        for i, r in zip(c2s, reversed(recv)):
            parts = lines[i].split(" ")
            parts[3] = r
            lines[i] = " ".join(parts)
        return lines

    _edit_frames(out, swap_recv)
    assert "frames.hex: c2s delivery times are not FIFO" in problems_of(out, ex)


def test_ingest_check_rejects_a_grid_that_is_not_the_hold_of_the_rows(tmp_path, monkeypatch, short_workloads):
    out, ex = good_run("csv_free_running", tmp_path, monkeypatch)
    times, power = ex.csv_rows
    power = power.copy()
    day = int(np.argmax(power > 0))
    power[day] += 1.0
    found = problems_of(out, replace(ex, csv_rows=(times, power)))
    assert "differs from the zero-order hold" in found


def test_setpoint_replay_rejects_a_setpoint_applied_too_early(tmp_path, monkeypatch, short_workloads):
    out, ex = good_run("csv_free_running", tmp_path, monkeypatch)
    frames, _ = checks.parse_frames(out / "frames.hex")
    held, held_seq = checks.held_setpoints(frames, len(ex.samples), ex.period_s)
    late = int(np.flatnonzero(held_seq != np.arange(1, len(held_seq) + 1))[-1])
    c2s = [f for f in frames if f.direction == "c2s"]
    on_time = c2s[late].values[0]
    assert on_time != held[late]
    edit_csv(out / "plant_trace.csv", late, "i_request_a", on_time)
    assert f"k={late + 1} i_request_a is not the setpoint held at its tick" in problems_of(out, ex)

