import dataclasses
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
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


# the JSON kind each scenario field takes ("?" also null); a range is an
# array of two numbers
FIELD_KINDS = {
    "sample_period_s": "number",
    "window_s": "number",
    "ramp_limit_pct_per_min": "number",
    "rr_interval_s": "number",
    "battery": "object",
    "transport": "object",
    "seed": "integer",
    "scale_to_rated_w": "number?",
    "supply_limit_a": "number",
    "battery.capacity_wh": "number",
    "battery.nominal_voltage_v": "number",
    "battery.v_min_v": "number",
    "battery.v_max_v": "number",
    "battery.internal_resistance_ohm": "number",
    "battery.current_limit_a": "number",
    "battery.soc_min": "number",
    "battery.soc_max": "number",
    "battery.soc_init": "number",
    "battery.coulombic_efficiency": "number",
    "battery.voltage_model": "string",
    "battery.enforce_soc_limits": "bool",
    "transport.mode": "string",
    "transport.latency_ms": "number",
    "transport.jitter_ms": "number",
    "transport.quantization": "object?",
    "transport.seed": "integer?",
    "transport.quantization.bits": "integer",
    "transport.quantization.power_range_w": "range?",
    "transport.quantization.voltage_range_v": "range?",
    "transport.quantization.current_range_a": "range?",
}

JSON_VALUES = {
    "string": st.text(max_size=5),
    "null": st.none(),
    "bool": st.booleans(),
    "integer": st.integers(-(2**40), 2**40),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "list": st.lists(st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=3), st.booleans(), st.none()), max_size=4),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
# the JSON kinds each field kind rejects; a range rejects lists other than
# two numbers, checked in the test
WRONG_KINDS = {
    "number": ["string", "null", "bool", "list", "object"],
    "integer": ["string", "null", "bool", "float", "list", "object"],
    "string": ["null", "bool", "integer", "float", "list", "object"],
    "bool": ["string", "null", "integer", "float", "list", "object"],
    "object": ["string", "null", "bool", "integer", "float", "list"],
    "range": ["string", "null", "bool", "integer", "float", "list", "object"],
}


NESTED = {"battery": BatteryParams, "transport": TransportConfig, "quantization": QuantizationConfig}


def field_paths(cls, prefix=""):
    for f in dataclasses.fields(cls):
        yield prefix + f.name
        if f.name in NESTED:
            yield from field_paths(NESTED[f.name], f"{prefix}{f.name}.")


def test_field_kinds_cover_every_scenario_field():
    assert sorted(field_paths(ScenarioConfig)) == sorted(FIELD_KINDS)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


@st.composite
def wrong_field_values(draw):
    path = draw(st.sampled_from(sorted(FIELD_KINDS)))
    kind = FIELD_KINDS[path]
    wrong = [k for k in WRONG_KINDS[kind.rstrip("?")] if not (kind.endswith("?") and k == "null")]
    value = draw(JSON_VALUES[draw(st.sampled_from(wrong))])
    if kind.startswith("range"):
        assume(not (isinstance(value, list) and len(value) == 2 and all(map(is_number, value))))
    return path, value


@given(case=wrong_field_values())
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_value_of_the_wrong_json_type_names_its_path(case, tmp_path):
    path, value = case
    doc = leaf = {}
    *parents, name = path.split(".")
    for key in parents:
        leaf[key] = leaf = {}
    leaf[name] = value
    scenario = tmp_path / "wrong.json"
    scenario.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as err:
        load_scenario(scenario)
    assert [e for e in err.value.errors if e.startswith((f"{path}:", f"{path}["))], (doc, err.value.errors)


@pytest.mark.parametrize("bits", [12.5, 12.0, True, "12", None])
def test_quantization_bits_must_be_an_integer(bits, tmp_path):
    scenario = tmp_path / "bits.json"
    scenario.write_text(json.dumps({"transport": {"quantization": {"bits": bits}}}))
    with pytest.raises(ConfigError, match=r"transport\.quantization\.bits: expected int"):
        load_scenario(scenario)


def test_integer_valued_scenario_keeps_its_digest(tmp_path):
    # ints in float fields stay ints, so the digest keeps the bytes of
    # earlier releases; ranges are read as floats
    doc = {
        "sample_period_s": 5, "window_s": 600, "ramp_limit_pct_per_min": 5, "rr_interval_s": 60, "seed": 3,
        "supply_limit_a": 50,
        "battery": {"capacity_wh": 2400, "soc_init": 0.5, "current_limit_a": 40},
        "transport": {"latency_ms": 5, "jitter_ms": 2, "seed": 11,
                      "quantization": {"bits": 10, "power_range_w": [0, 6000], "current_range_a": [-80, 80]}},
        "source": {"kind": "synth", "profile": "cloud_random", "duration_s": 7200, "rated_w": 3000},
    }
    scenario = tmp_path / "ints.json"
    scenario.write_text(json.dumps(doc))
    cfg, source = load_scenario(scenario)
    assert cfg.transport.latency_ms == 5 and isinstance(cfg.transport.latency_ms, int)
    assert cfg.transport.quantization.power_range_w == (0.0, 6000.0)
    assert config_hash(cfg, source) == "a0c4792a20c80413ccc2b9439fee69474c5f11300f94b216b94e7bf311f75e7f"
    assert config_hash(cfg) == "407e7fd1a625fdd956becb8df23d484b6176c7871d5907a7a185afb6fac96193"
