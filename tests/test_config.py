import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pvsmooth.config import (
    BatteryParams,
    ConfigError,
    QuantizationConfig,
    ScenarioConfig,
    TransportConfig,
    config_hash,
    load_scenario,
    save_scenario,
    validate_scenario,
)


def test_defaults_are_valid(default_cfg):
    assert default_cfg.n_window == 360
    assert default_cfg.battery.capacity_ah == pytest.approx(2400.0 / 53.0)


def test_window_not_multiple_of_period():
    with pytest.raises(ConfigError, match="window_s"):
        validate_scenario(ScenarioConfig(window_s=1799.0))


def test_all_errors_reported_together():
    bad = ScenarioConfig(
        window_s=7.0,
        rr_interval_s=13.0,
        ramp_limit_pct_per_min=-1.0,
        battery=BatteryParams(soc_min=0.9, soc_max=0.1),
    )
    with pytest.raises(ConfigError) as exc:
        validate_scenario(bad)
    msgs = exc.value.errors
    assert len(msgs) >= 4
    assert any(m.startswith("window_s") for m in msgs)
    assert any(m.startswith("battery.soc_min") for m in msgs)


def test_validation_is_idempotent(default_cfg):
    assert validate_scenario(default_cfg) == default_cfg
    assert validate_scenario(validate_scenario(default_cfg)) == default_cfg


def test_jitter_above_latency_rejected():
    cfg = ScenarioConfig(transport=TransportConfig(latency_ms=10.0, jitter_ms=20.0))
    with pytest.raises(ConfigError, match="jitter_ms"):
        validate_scenario(cfg)


def test_quantization_bits_range():
    for bits, ok in ((7, False), (8, True), (16, True), (17, False)):
        cfg = ScenarioConfig(transport=TransportConfig(quantization=QuantizationConfig(bits=bits)))
        if ok:
            validate_scenario(cfg)
        else:
            with pytest.raises(ConfigError, match="bits"):
                validate_scenario(cfg)


def test_soc_init_outside_bounds():
    with pytest.raises(ConfigError, match="soc_init"):
        validate_scenario(ScenarioConfig(battery=BatteryParams(soc_init=0.95)))


def test_voltage_model_enum():
    with pytest.raises(ConfigError, match="voltage_model"):
        validate_scenario(ScenarioConfig(battery=BatteryParams(voltage_model="cubic")))


def test_nominal_voltage_inside_band():
    with pytest.raises(ConfigError, match="nominal_voltage_v"):
        validate_scenario(ScenarioConfig(battery=BatteryParams(nominal_voltage_v=40.0)))


def test_scenario_file_round_trip(tmp_path):
    cfg = ScenarioConfig(
        seed=9,
        battery=BatteryParams(voltage_model="linear_ocv"),
        transport=TransportConfig(latency_ms=5.0, jitter_ms=2.0, quantization=QuantizationConfig()),
    )
    source = {"kind": "synth", "profile": "clear", "duration_s": 600.0, "rated_w": 1000.0}
    path = tmp_path / "scenario.json"
    save_scenario(cfg, path, source)
    loaded, loaded_source = load_scenario(path)
    assert loaded == cfg
    assert loaded_source == source


def test_unknown_fields_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sample_period_s": 5.0, "frobnicate": 1}))
    with pytest.raises(ConfigError, match="frobnicate"):
        load_scenario(path)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scenario(path)


def test_config_hash_tracks_content():
    a = ScenarioConfig()
    b = ScenarioConfig(seed=1)
    assert config_hash(a) == config_hash(ScenarioConfig())
    assert config_hash(a) != config_hash(b)
    assert config_hash(a) != config_hash(a, source={"kind": "synth"})


@given(period=st.sampled_from([1.0, 2.0, 5.0, 10.0]), mult=st.integers(1, 600))
def test_any_exact_multiple_window_validates(period, mult):
    cfg = ScenarioConfig(sample_period_s=period, window_s=period * mult, rr_interval_s=period)
    assert validate_scenario(cfg).n_window == mult
