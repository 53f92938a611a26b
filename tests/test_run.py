import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ideal_battery, read_csv_columns
from pvsmooth import bus
from pvsmooth.config import (
    ConfigError,
    QuantizationConfig,
    ScenarioConfig,
    TransportConfig,
    validate_scenario,
)
from pvsmooth.ingest import IngestSpec, ingest_csv
from pvsmooth.plant import INVARIANT, RunFault
from pvsmooth.ramp import ramp_report
from pvsmooth.run import (
    check_run_invariants,
    live_p_hat,
    resolve_source,
    run_scenario,
)
from pvsmooth.series import PowerSeries
from pvsmooth.synth import synth_pv


def test_constant_series_steady_state(tmp_path):
    cfg = ScenarioConfig()
    series = PowerSeries([1000.0] * 1440, 5.0, 3000.0)
    art = run_scenario(cfg, series, tmp_path / "out")
    assert art.raw_report.max_abs_rr == 0.0
    assert art.smoothed_report_postwarmup.max_abs_rr == 0.0
    # SOC charges during warm-up, then freezes once p_hat reaches the input
    socs = read_csv_columns(art.out_dir / "plant_trace.csv")["soc"]
    assert socs[-1] == socs[360]
    assert art.soc.soc_final == socs[-1]


def test_cloud_square_smoothing_bound(tmp_path):
    series = synth_pv("cloud_square", 7200, 5, 3000.0, depth=0.8, cloud_period_s=600.0)
    art = run_scenario(ScenarioConfig(), series, tmp_path / "out")
    assert art.raw_report.max_abs_rr >= 50.0
    # analytic moving-average bound: 100 * 12 / 360 %/min
    assert art.smoothed_report.max_abs_rr <= 100.0 * 12 / 360 + 1e-5


def test_cloud_square_smoothing_bound_with_quantization(tmp_path):
    series = synth_pv("cloud_square", 7200, 5, 3000.0, depth=0.8, cloud_period_s=600.0)
    cfg = ScenarioConfig(
        transport=TransportConfig(quantization=QuantizationConfig(bits=12))
    )
    art = run_scenario(cfg, series, tmp_path / "out")
    assert art.raw_report.max_abs_rr >= 50.0
    # quantized sensor power can sit half a code above rated:
    # bound scales by (1 + 2/4096 / 2) with the [0, 2*rated] 12-bit range
    bound = (100.0 * 12 / 360) * (1.0 + 1.0 / 4096) + 1e-5
    assert art.smoothed_report.max_abs_rr <= bound


def test_scaling_policy_applied(tmp_path):
    series = synth_pv("clear", 3600, 5, 10000.0)
    cfg = ScenarioConfig(scale_to_rated_w=1000.0)
    art = run_scenario(cfg, series, tmp_path / "out")
    assert json.loads((art.out_dir / "metrics.json").read_text())["rated_power_w"] == 1000.0
    assert read_csv_columns(art.out_dir / "plant_trace.csv")["p_pv_w"].max() <= 1000.0


def test_grid_power_identity_ideal_fixture(tmp_path):
    # integer-lattice samples, power-of-two window and voltage, no losses:
    # the whole power chain is exact in binary64
    base = synth_pv("cloud_square", 7200, 5, 3000.0, depth=0.8, cloud_period_s=600.0)
    series = PowerSeries(np.floor(base.samples), 5.0, 3000.0)
    cfg = ScenarioConfig(window_s=1280.0, battery=ideal_battery(64.0))
    art = run_scenario(cfg, series, tmp_path / "out")
    plant = read_csv_columns(art.out_dir / "plant_trace.csv")
    ctrl = read_csv_columns(art.out_dir / "controller_log.csv")
    p_hat = ctrl["p_hat_w"]
    p_batt = ctrl["p_batt_w"]
    assert np.array_equal(plant["i_request_a"], plant["i_applied_a"])
    assert np.array_equal(plant["realized_p_batt_w"], p_batt)
    assert np.array_equal(plant["p_grid_w"], p_hat)


def test_realized_tracks_requested_with_losses(tmp_path):
    # default battery: nonzero resistance produces bounded divergence, not
    # bitwise equality; the controller divides by last step's terminal
    # voltage, so the gap is i_k * R * (i_k - i_km1)
    series = synth_pv("clear", 3600, 5, 2000.0)
    art = run_scenario(ScenarioConfig(), series, tmp_path / "out")
    plant = read_csv_columns(art.out_dir / "plant_trace.csv")
    p_batt = read_csv_columns(art.out_dir / "controller_log.csv")["p_batt_w"]
    realized = plant["realized_p_batt_w"]
    i = plant["i_applied_a"]
    i_prev = np.concatenate([[0.0], i[:-1]])
    bound = np.abs(i) * 0.05 * np.abs(i - i_prev) + 1e-9
    assert np.all(np.abs(realized - p_batt) <= bound)
    # and the worst-case divergence stays small on this profile
    assert np.abs(realized - p_batt).max() < 1.0


def test_artifact_files_written_and_parse(tmp_path):
    series = synth_pv("cloud_random", 1800, 5, 3000.0, seed=2)
    art = run_scenario(ScenarioConfig(seed=2), series, tmp_path / "out")
    assert sorted(p.name for p in art.out_dir.iterdir()) == sorted(art.files)
    for name in (
        "plant_trace.csv",
        "controller_log.csv",
        "metrics.json",
        "raw_rates.csv",
        "smoothed_rates.csv",
        "histogram.csv",
        "frames.hex",
    ):
        path = art.out_dir / name
        assert path.exists() and path.stat().st_size > 0
    doc = json.loads((art.out_dir / "metrics.json").read_text())
    assert doc["config_hash"] == art.config_digest
    assert doc["ramp"]["smoothed"]["n_points"] == len(art.smoothed_report.rr_pct_per_min)
    assert doc["soc"]["final"] == art.soc.soc_final
    header = (art.out_dir / "plant_trace.csv").read_text().splitlines()[0]
    assert header == "k,p_pv_w,i_request_a,i_applied_a,v_terminal_v,soc,realized_p_batt_w,p_grid_w"


def test_controller_log_cross_check(tmp_path):
    # smoothed trace re-read from the CSV log reproduces the in-run report
    series = synth_pv("cloud_random", 3600, 5, 3000.0, seed=8)
    cfg = ScenarioConfig(seed=8)
    art = run_scenario(cfg, series, tmp_path / "out")
    lines = (art.out_dir / "controller_log.csv").read_text().splitlines()
    cols = lines[0].split(",")
    p_hat = np.array([float(line.split(",")[cols.index("p_hat_w")]) for line in lines[1:]])
    standalone = PowerSeries(p_hat, 5.0, 3000.0, _skip_validation=True)
    rep = ramp_report(standalone, cfg.rr_interval_s, cfg.ramp_limit_pct_per_min)
    assert np.array_equal(rep.rr_pct_per_min, art.smoothed_report.rr_pct_per_min)
    assert rep.max_abs_rr == art.smoothed_report.max_abs_rr


def test_repeat_runs_byte_identical(tmp_path):
    series = synth_pv("cloud_random", 1800, 5, 3000.0, seed=4)
    cfg = ScenarioConfig(seed=4)
    a = run_scenario(cfg, series, tmp_path / "a")
    b = run_scenario(cfg, series, tmp_path / "b")
    for name in (
        "plant_trace.csv",
        "controller_log.csv",
        "metrics.json",
        "raw_rates.csv",
        "smoothed_rates.csv",
        "histogram.csv",
        "frames.hex",
    ):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_no_leftover_tmp_files(tmp_path):
    series = synth_pv("clear", 600, 5, 1000.0)
    run_scenario(ScenarioConfig(window_s=60.0), series, tmp_path / "out")
    assert not list((tmp_path / "out").glob("*.tmp"))


def test_free_running_mode_via_config(tmp_path):
    series = synth_pv("cloud_random", 1800, 5, 3000.0, seed=5)
    cfg = ScenarioConfig(
        seed=5,
        transport=TransportConfig(mode="free_running", latency_ms=100.0, jitter_ms=50.0),
    )
    art = run_scenario(cfg, series, tmp_path / "out")
    assert len(read_csv_columns(art.out_dir / "plant_trace.csv")["k"]) == 360
    doc = json.loads((art.out_dir / "metrics.json").read_text())
    assert doc["mode"] == "free_running"


def check_session(session, cfg):
    """check_run_invariants over the whole of a sink-less session's tables."""
    check_run_invariants(cfg, log=session.controller.log, trace=session.plant.trace)


def test_soc_guard_trips_on_breach():
    # a doctored trace row must trip the re-check
    series = synth_pv("clear", 600, 5, 1000.0)
    cfg = validate_scenario(ScenarioConfig(window_s=60.0))
    session = bus.run_lockstep_inproc(series, cfg)
    check_session(session, cfg)
    session.plant.trace.soc[3] = 0.99
    with pytest.raises(RunFault, match="soc") as err:
        check_session(session, cfg)
    assert (err.value.kind, err.value.step) == (INVARIANT, 4)


def test_conservation_check_trips_on_doctored_log():
    series = synth_pv("clear", 600, 5, 1000.0)
    cfg = validate_scenario(ScenarioConfig(window_s=60.0))
    session = bus.run_lockstep_inproc(series, cfg)
    check_session(session, cfg)
    session.controller.log.p_batt_w[5] += 1e-9
    with pytest.raises(RunFault, match="conservation breach at controller step 6") as err:
        check_session(session, cfg)
    assert err.value.kind == INVARIANT


def test_invariant_check_reports_the_first_offending_step():
    series = synth_pv("clear", 600, 5, 1000.0)
    cfg = validate_scenario(ScenarioConfig(window_s=60.0))
    session = bus.run_lockstep_inproc(series, cfg)
    log = session.controller.log
    log.p_batt_w[40] += 1e-9
    log.i_set_a[20] += 1e-9
    with pytest.raises(RunFault, match="setpoint identity breach at controller step 21") as err:
        check_session(session, cfg)
    assert err.value.kind == INVARIANT
    log.p_batt_w[10] += 1.0
    with pytest.raises(RunFault, match="conservation breach at controller step 11") as err:
        check_session(session, cfg)
    assert (err.value.kind, err.value.step) == (INVARIANT, 11)


def loop_invariant_check(session, cfg):
    """The per-row reference the vectorised check must agree with: the
    (step, message) of the first breach, or None."""
    log = session.controller.log
    names = ("k", "p_pv_w", "v_batt_v", "p_hat_w", "p_batt_w", "i_set_a", "fault")
    for k, p_pv, v_batt, p_hat, p_batt, i_set, fault in zip(*(getattr(log, name).tolist() for name in names)):
        if k == 0:
            continue
        if p_batt != p_pv - p_hat:
            return k, f"conservation breach at controller step {k}: p_batt {p_batt!r} != p_pv - p_hat {(p_pv - p_hat)!r}"
        if not fault and i_set != p_batt / v_batt:
            return k, f"setpoint identity breach at controller step {k}"
    b = cfg.battery
    if b.enforce_soc_limits:
        for k, soc in zip(session.plant.trace.k.tolist(), session.plant.trace.soc.tolist()):
            if not (b.soc_min <= soc <= b.soc_max):
                return k, f"soc {soc} outside [{b.soc_min}, {b.soc_max}] at plant step {k}"
    return None


@pytest.fixture(scope="module")
def short_session():
    series = synth_pv("cloud_random", 300, 5, 1000.0, seed=6)
    cfg = validate_scenario(ScenarioConfig(window_s=60.0))
    corrupt = lambda i, data: data[:-1] + bytes([data[-1] ^ 1]) if i == 7 else data  # noqa: E731
    return bus.run_lockstep_inproc(series, cfg, corrupt_s2c=corrupt), cfg


@given(
    edits=st.lists(
        st.tuples(
            st.sampled_from(["p_pv_w", "v_batt_v", "p_hat_w", "p_batt_w", "i_set_a", "fault", "soc"]),
            st.integers(0, 59),
            st.sampled_from([0.0, -0.0, 1e-9, -1.0, 0.95, math.nan, math.inf]),
        ),
        max_size=3,
    )
)
@settings(max_examples=200, deadline=None)
def test_invariant_check_agrees_with_the_row_loop(short_session, edits):
    session, cfg = short_session
    log, trace = session.controller.log, session.plant.trace
    saved = {name: getattr(t, name).copy() for t in (log, trace) for name in t.names}
    try:
        for name, i, value in edits:
            table = trace if name == "soc" else log
            column = getattr(table, name)
            column[i] = (value != 0.0) if name == "fault" else (value if name == "soc" else column[i] + value)
        expected = loop_invariant_check(session, cfg)
        if expected is None:
            check_session(session, cfg)
        else:
            with pytest.raises(RunFault) as err:
                check_session(session, cfg)
            assert err.value.kind == INVARIANT
            assert (err.value.step, str(err.value)) == expected
    finally:
        for t in (log, trace):
            for name in t.names:
                getattr(t, name)[:] = saved[name]


def test_invariant_check_skips_lost_sample_rows(tmp_path):
    # a lost sample's row (k=0, NaN payload, zero setpoint) has no arithmetic
    series = synth_pv("cloud_random", 600, 5, 1000.0, seed=2)
    cfg = validate_scenario(ScenarioConfig(window_s=60.0))
    session = bus.run_lockstep_inproc(
        series, cfg, corrupt_s2c=lambda i, data: data[:-1] + bytes([data[-1] ^ 1]) if i == 30 else data
    )
    assert session.controller.log.k[30] == 0
    check_session(session, cfg)
    assert len(live_p_hat(session.controller.log)) == len(series) - 1


def test_series_grid_must_match_scenario(tmp_path):
    series = PowerSeries([1.0, 2.0, 3.0], 60.0, 10.0)
    with pytest.raises(ConfigError, match="does not match"):
        run_scenario(ScenarioConfig(), series, tmp_path / "out")


def test_resolve_source_synth_and_csv(tmp_path):
    cfg = validate_scenario(ScenarioConfig(seed=3))
    s1 = resolve_source(
        {"kind": "synth", "profile": "cloud_random", "duration_s": 600.0, "rated_w": 500.0},
        cfg,
    )
    assert len(s1) == 120 and s1.rated_power_w == 500.0

    csv_path = tmp_path / "pv.csv"
    csv_path.write_text("t_s,power_w\n0,10\n5,20\n10,30\n")
    s2 = resolve_source({"kind": "csv", "path": str(csv_path)}, cfg)
    assert s2.samples.tolist() == [10.0, 20.0, 30.0]

    with pytest.raises(ConfigError, match="source"):
        resolve_source(None, cfg)
    with pytest.raises(ConfigError, match="kind"):
        resolve_source({"kind": "carrier_pigeon"}, cfg)


def test_resolve_source_checks_every_key_and_keeps_float_metadata(tmp_path):
    # integers in a synth source give the trace of their float values, float
    # metadata included (metrics.json writes it); a missing csv path, an
    # unknown key or a wrong-typed value is a ConfigError naming the key
    cfg = validate_scenario(ScenarioConfig(sample_period_s=5, window_s=60, rr_interval_s=60, seed=3))
    ints = resolve_source({"kind": "synth", "profile": "cloud_random", "duration_s": 600, "rated_w": 500}, cfg)
    floats = resolve_source({"kind": "synth", "profile": "cloud_random", "duration_s": 600.0, "rated_w": 500.0}, cfg)
    assert ints == floats
    assert (type(ints.rated_power_w), type(ints.sample_period_s)) == (float, float)
    for source, named in [
        ({"kind": "csv"}, "source.path: required"),
        ({"kind": "csv", "path": str(tmp_path / "pv.csv"), "clamp_negative": "yes"}, "source.clamp_negative: expected bool"),
        ({"kind": "synth", "seed": 1.5}, "source.seed: expected int"),
        ({"kind": "synth", "return": 1}, "source.return: unknown field"),
        (["synth"], "source: expected an object"),
    ]:
        with pytest.raises(ConfigError, match=re.escape(named)):
            resolve_source(source, cfg)


def test_field_inverter_export_ingest_path(tmp_path):
    # ISO-stamped inverter export, resampled onto the 5 s grid, then run
    from datetime import datetime, timedelta, timezone

    rows = ["stamp,pv_w"]
    t0 = datetime(2024, 6, 1, 12, 0, 0, tzinfo=timezone.utc)
    for i in range(720):
        rows.append(f"{(t0 + timedelta(seconds=5 * i)).isoformat()},{100.0 + i}")
    path = tmp_path / "inverter_export.csv"
    path.write_text("\n".join(rows) + "\n")
    result = ingest_csv(
        IngestSpec(
            path=str(path),
            time_column="stamp",
            power_column="pv_w",
            timestamp_format="iso8601",
            resample="zero_order_hold",
            sample_period_s=5.0,
            rated_power_w=1000.0,
        )
    )
    art = run_scenario(ScenarioConfig(), result.series, tmp_path / "out")
    assert art.raw_report.rr_pct_per_min.size == 59
    assert art.smoothed_report.rr_pct_per_min.size == 59
