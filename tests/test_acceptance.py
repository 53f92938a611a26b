"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is also part of the normal suite.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import ideal_battery, naive_zero_padded_mean, read_csv_columns, smooth_array
from pvsmooth.bus import run_free_running, run_lockstep_inproc, run_lockstep_socket
from pvsmooth.cli import main
from pvsmooth.config import ScenarioConfig, TransportConfig, load_scenario, validate_scenario
from pvsmooth.controller import SmoothingController
from pvsmooth.frames import FrameError, decode_frame, encode_frame, sensor_frame
from pvsmooth.ramp import ramp_report
from pvsmooth.run import resolve_source, run_scenario
from pvsmooth.series import PowerSeries, scale_series
from pvsmooth.synth import synth_pv

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

N_WINDOW = 360
RATED_W = 3000.0


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


# --------------------------------------------------------------------------
# Shared corpora (computed once per session)
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def random_sequences():
    rng = np.random.default_rng(20240601)
    return [rng.uniform(0.0, RATED_W, size=int(rng.integers(1, 5001))) for _ in range(1000)]


@pytest.fixture(scope="module")
def fixture_runs(tmp_path_factory):
    """The run corpus behind the every-run criteria: conservation and SOC."""
    base = tmp_path_factory.mktemp("acceptance_runs")
    runs = {}

    def run(name, cfg, series, **kwargs):
        cfg = validate_scenario(cfg)
        runs[name] = cfg, run_scenario(cfg, series, base / name, **kwargs)

    cfg, source = load_scenario(SCENARIOS / "qualitative_smoothing.json")
    run("qualitative", cfg, resolve_source(source, cfg), source=source)

    run("constant", ScenarioConfig(), PowerSeries([1000.0] * 1440, 5.0, RATED_W))

    ideal_base = synth_pv("cloud_square", 7200, 5, RATED_W, depth=0.8, cloud_period_s=600.0)
    ideal_series = PowerSeries(np.floor(ideal_base.samples), 5.0, RATED_W)
    run("ideal", ScenarioConfig(window_s=1280.0, battery=ideal_battery(64.0)), ideal_series)

    run(
        "free_running",
        ScenarioConfig(
            seed=11,
            transport=TransportConfig(mode="free_running", latency_ms=100.0, jitter_ms=50.0),
        ),
        synth_pv("cloud_random", 3600, 5, RATED_W, seed=11),
    )
    return runs


# --------------------------------------------------------------------------
# 1. Moving-average oracle
# --------------------------------------------------------------------------


def test_c1_moving_average_oracle(random_sequences):
    t0 = time.perf_counter()
    worst = 0.0
    for x in random_sequences:
        got = smooth_array(SmoothingController(N_WINDOW), x)
        want = naive_zero_padded_mean(x, N_WINDOW)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.abs(got - want) / np.abs(want)
        worst = max(worst, float(np.nanmax(rel)) if rel.size else 0.0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(f"1 moving-average oracle: 1000 sequences, worst rel err {worst:.2e}, "
           f"{elapsed:.2f}s: PASS")


# --------------------------------------------------------------------------
# 2. Smoothed ramp bound
# --------------------------------------------------------------------------


def test_c2_smoothed_ramp_bound(random_sequences):
    bound = 100.0 * 12 / 360 + 1e-5  # 3.33334
    worst = 0.0
    for x in random_sequences:
        p_hat = smooth_array(SmoothingController(N_WINDOW), x)
        if p_hat.size <= 12:
            continue
        idx = np.arange(12, p_hat.size, 12)
        rr = 100.0 * (p_hat[idx] - p_hat[idx - 12]) / RATED_W
        worst = max(worst, float(np.abs(rr).max()))
        assert np.abs(rr).max() <= bound
    report(f"2 smoothed 1-min ramp bound: worst {worst:.5f} <= {bound}: PASS")


# --------------------------------------------------------------------------
# 3. Conservation and grid-power identity
# --------------------------------------------------------------------------


def test_c3_conservation_bitwise(fixture_runs):
    steps = 0
    for name, (_cfg, art) in fixture_runs.items():
        log = read_csv_columns(art.out_dir / "controller_log.csv")
        for k, p_pv, p_hat, p_batt in zip(log["k"], log["p_pv_w"], log["p_hat_w"], log["p_batt_w"]):
            assert p_batt == p_pv - p_hat, (name, k)
            steps += 1
    ideal = fixture_runs["ideal"][1].out_dir
    p_hat = read_csv_columns(ideal / "controller_log.csv")["p_hat_w"]
    p_grid = read_csv_columns(ideal / "plant_trace.csv")["p_grid_w"]
    assert np.array_equal(p_grid, p_hat)
    report(f"3 conservation bitwise over {steps} steps in {len(fixture_runs)} runs; "
           f"p_grid == p_hat bitwise on ideal plant: PASS")


# --------------------------------------------------------------------------
# 4. Qualitative replication on the shipped fixture
# --------------------------------------------------------------------------


def test_c4_qualitative_replication(tmp_path):
    cfg, source = load_scenario(SCENARIOS / "qualitative_smoothing.json")
    series = resolve_source(source, cfg)
    assert len(series) == 1440
    t0 = time.perf_counter()
    art = run_scenario(cfg, series, tmp_path / "out", source=source)
    elapsed = time.perf_counter() - t0

    raw_max = art.raw_report.max_abs_rr
    post = art.smoothed_report_postwarmup
    assert raw_max >= 50.0
    assert post.max_abs_rr <= 5.0
    assert post.violation_fraction == 0.0
    assert elapsed < 1.0
    report(f"4 qualitative replication: raw {raw_max:.1f} %/min -> smoothed "
           f"{post.max_abs_rr:.2f} %/min, violation fraction {post.violation_fraction}, "
           f"{elapsed * 1000:.0f} ms: PASS")


# --------------------------------------------------------------------------
# 5. SOC oracle and bounds
# --------------------------------------------------------------------------


def test_c5_soc_oracle(fixture_runs):
    import math

    worst = 0.0
    for name, (cfg, art) in fixture_runs.items():
        b = cfg.battery
        trace = read_csv_columns(art.out_dir / "plant_trace.csv")
        increments = []
        for i_applied_a in trace["i_applied_a"]:
            eta = b.coulombic_efficiency if i_applied_a >= 0 else 1.0 / b.coulombic_efficiency
            increments.append(eta * i_applied_a * cfg.sample_period_s / (3600.0 * b.capacity_ah))
        replay = b.soc_init + math.fsum(increments)
        err = abs(art.soc.soc_final - replay)
        worst = max(worst, err)
        assert err < 1e-9, name
        if b.enforce_soc_limits:
            socs = trace["soc"]
            assert socs.min() >= b.soc_min and socs.max() <= b.soc_max, name
    report(f"5 SOC oracle: worst replay error {worst:.2e} < 1e-9; bounds held: PASS")


# --------------------------------------------------------------------------
# 6. Scaling invariance
# --------------------------------------------------------------------------


def test_c6_scaling_invariance():
    series = synth_pv("cloud_random", 7200, 5, RATED_W, seed=42)
    a = ramp_report(series, 60.0, 5.0)
    b = ramp_report(scale_series(series, 10.0 * RATED_W), 60.0, 5.0)
    assert np.allclose(a.rr_pct_per_min, b.rr_pct_per_min, rtol=1e-9, atol=0.0)
    assert a.violation_count == b.violation_count
    assert np.array_equal(a.histogram.counts, b.histogram.counts)
    assert np.array_equal(a.histogram.bin_edges, b.histogram.bin_edges)
    assert abs(a.max_abs_rr - b.max_abs_rr) <= 1e-9 * a.max_abs_rr
    rel = float(np.max(np.abs(a.rr_pct_per_min - b.rr_pct_per_min) / np.abs(a.rr_pct_per_min)))
    report(f"6 scaling invariance (10x): max elementwise rel diff {rel:.2e} < 1e-9: PASS")


# --------------------------------------------------------------------------
# 7. Protocol conformance
# --------------------------------------------------------------------------


def test_c7_protocol_conformance():
    from pvsmooth.frames import MSG_END, MSG_FAULT, MSG_SENSOR, MSG_SETPOINT, BusFrame

    rng = np.random.default_rng(7)
    n = 100_000
    for _ in range(n):
        kind = int(rng.integers(0, 4))
        msg_type = (MSG_SENSOR, MSG_SETPOINT, MSG_END, MSG_FAULT)[kind]
        n_vals = (2, 1, 0, 0)[kind]
        frame = BusFrame(
            msg_type,
            int(rng.integers(0, 2**32)),
            int(rng.integers(0, 2**64, dtype=np.uint64)),
            tuple(float(v) for v in rng.uniform(-1e9, 1e9, size=n_vals)),
        )
        assert decode_frame(encode_frame(frame)) == frame

    reference = encode_frame(sensor_frame(2, 5000, 1234.5678, 52.91))
    for bit in range(len(reference) * 8):
        corrupted = bytearray(reference)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(FrameError):
            decode_frame(bytes(corrupted))

    series = synth_pv("cloud_random", 1800, 5, RATED_W, seed=21)
    cfg = validate_scenario(ScenarioConfig(seed=21))
    inproc = run_lockstep_inproc(series, cfg)
    sock = run_lockstep_socket(series, cfg)
    assert list(inproc.log.tagged_hex()) == list(sock.log.tagged_hex())

    fr_cfg = validate_scenario(
        ScenarioConfig(
            seed=21,
            transport=TransportConfig(mode="free_running", latency_ms=80.0, jitter_ms=40.0),
        )
    )
    fr1 = run_free_running(series, fr_cfg)
    fr2 = run_free_running(series, fr_cfg)
    assert list(fr1.log.tagged_hex()) == list(fr2.log.tagged_hex())
    assert fr1.log.frames.draw_ms.tolist() == fr2.log.frames.draw_ms.tolist()

    report(f"7 protocol conformance: {n} round trips, {len(reference) * 8} bit flips "
           f"rejected, socket == inproc, free-running schedule reproduced: PASS")


# --------------------------------------------------------------------------
# 8. End-to-end determinism
# --------------------------------------------------------------------------


def test_c8_run_determinism(tmp_path):
    scenario = str(SCENARIOS / "qualitative_smoothing.json")
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--scenario", scenario, "--out", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    report(f"8 determinism: {len(names)} artifact files byte-identical across runs: PASS")
