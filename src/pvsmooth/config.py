"""Scenario configuration: battery, transport, and experiment parameters.

Everything an experiment needs is declared here in SI units and validated up
front. A scenario can be loaded from / saved to a JSON document; the schema
is documented in the README. Defaults follow the reference hardware: a
two-module series battery stack (2.4 kWh, 53 V nominal) behind a bidirectional
DC supply hard-limited to +/-55 A, sampled every 5 s with a 30-minute
averaging window and a +/-5 %/min ramp limit.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

# The DC supply's hardware current ceiling; the scenario can tighten it but
# never exceed it.
SUPPLY_HARD_LIMIT_A = 55.0

VOLTAGE_MODELS = ("constant", "linear_ocv")
TRANSPORT_MODES = ("lockstep", "free_running")
SYNTH_PROFILES = ("clear", "cloud_square", "cloud_random")


class InputError(ValueError):
    """Bad input, exit 3 on the command line: one message or a list of them,
    kept in errors and joined with "; " after the class's prefix."""

    prefix = ""

    def __init__(self, errors: str | list[str]):
        self.errors = [errors] if isinstance(errors, str) else list(errors)
        super().__init__(self.prefix + "; ".join(self.errors))


class ConfigError(InputError):
    """Validation failure; carries one message per violated field."""

    prefix = "invalid scenario: "


@dataclass(frozen=True)
class BatteryParams:
    """Electrical and safety parameters of the equivalent battery stack."""

    capacity_wh: float = 2400.0
    nominal_voltage_v: float = 53.0
    v_min_v: float = 48.0
    v_max_v: float = 58.0
    internal_resistance_ohm: float = 0.05
    current_limit_a: float = 55.0
    soc_min: float = 0.10
    soc_max: float = 0.90
    soc_init: float = 0.50
    coulombic_efficiency: float = 1.0
    voltage_model: str = "constant"
    enforce_soc_limits: bool = True

    @functools.cached_property  # kept in the instance's __dict__, outside the fields
    def capacity_ah(self) -> float:
        return self.capacity_wh / self.nominal_voltage_v


@dataclass(frozen=True)
class QuantizationConfig:
    """ADC/DAC emulation at the bus boundary.

    Ranges left as None are resolved against the running scenario:
    power [0, 2*rated], voltage [0, 1.5*v_max], current [-2*i_lim, +2*i_lim].
    """

    bits: int = 12
    power_range_w: tuple[float, float] | None = None
    voltage_range_v: tuple[float, float] | None = None
    current_range_a: tuple[float, float] | None = None


@dataclass(frozen=True)
class TransportConfig:
    """Message-loop behavior between plant and controller."""

    mode: str = "lockstep"
    latency_ms: float = 0.0
    jitter_ms: float = 0.0
    quantization: QuantizationConfig | None = None
    seed: int | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one smoothing experiment."""

    sample_period_s: float = 5.0
    window_s: float = 1800.0
    ramp_limit_pct_per_min: float = 5.0
    rr_interval_s: float = 60.0
    battery: BatteryParams = field(default_factory=BatteryParams)
    transport: TransportConfig = field(default_factory=TransportConfig)
    seed: int = 0
    # PV scaling policy: None plays the input trace as-is; a target wattage
    # rescales it (shape-preserving) before the run.
    scale_to_rated_w: float | None = None
    supply_limit_a: float = SUPPLY_HARD_LIMIT_A

    @property
    def n_window(self) -> int:
        """Averaging window length in samples."""
        return round(self.window_s / self.sample_period_s)


def _is_multiple(value: float, base: float) -> bool:
    if base <= 0 or not (math.isfinite(value) and math.isfinite(base)):
        return False
    ratio = value / base
    return abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 1


def validate_scenario(cfg: ScenarioConfig) -> ScenarioConfig:
    """Check every scenario invariant; all violations are reported together.

    Returns the config unchanged when valid (validation is idempotent),
    otherwise raises ConfigError listing each offending field.
    """
    errors: list[str] = []
    e = errors.append

    if not (math.isfinite(cfg.sample_period_s) and cfg.sample_period_s > 0):
        e(f"sample_period_s: must be finite and > 0, got {cfg.sample_period_s}")
    else:
        if not _is_multiple(cfg.window_s, cfg.sample_period_s):
            e(f"window_s: {cfg.window_s} not a positive integer multiple of sample_period_s {cfg.sample_period_s}")
        if not _is_multiple(cfg.rr_interval_s, cfg.sample_period_s):
            e(f"rr_interval_s: {cfg.rr_interval_s} not a positive integer multiple of sample_period_s {cfg.sample_period_s}")
    if cfg.ramp_limit_pct_per_min < 0:
        e(f"ramp_limit_pct_per_min: must be >= 0, got {cfg.ramp_limit_pct_per_min}")
    if not (isinstance(cfg.seed, int) and cfg.seed >= 0):
        e(f"seed: must be a non-negative integer, got {cfg.seed!r}")
    if cfg.scale_to_rated_w is not None and not cfg.scale_to_rated_w > 0:
        e(f"scale_to_rated_w: must be > 0 when set, got {cfg.scale_to_rated_w}")
    if not cfg.supply_limit_a > 0:
        e(f"supply_limit_a: must be > 0, got {cfg.supply_limit_a}")

    b = cfg.battery
    if not b.capacity_wh > 0:
        e(f"battery.capacity_wh: must be > 0, got {b.capacity_wh}")
    if not b.nominal_voltage_v > 0:
        e(f"battery.nominal_voltage_v: must be > 0, got {b.nominal_voltage_v}")
    if not b.v_min_v < b.v_max_v:
        e(f"battery.v_min_v/v_max_v: require v_min < v_max, got {b.v_min_v} >= {b.v_max_v}")
    elif not (b.v_min_v <= b.nominal_voltage_v <= b.v_max_v):
        e(f"battery.nominal_voltage_v: {b.nominal_voltage_v} outside [{b.v_min_v}, {b.v_max_v}]")
    if b.internal_resistance_ohm < 0:
        e(f"battery.internal_resistance_ohm: must be >= 0, got {b.internal_resistance_ohm}")
    if not b.current_limit_a > 0:
        e(f"battery.current_limit_a: must be > 0, got {b.current_limit_a}")
    if not (0.0 <= b.soc_min < b.soc_max <= 1.0):
        e(f"battery.soc_min/soc_max: require 0 <= soc_min < soc_max <= 1, got [{b.soc_min}, {b.soc_max}]")
    elif not (b.soc_min <= b.soc_init <= b.soc_max):
        e(f"battery.soc_init: {b.soc_init} outside [{b.soc_min}, {b.soc_max}]")
    if not (0.0 < b.coulombic_efficiency <= 1.0):
        e(f"battery.coulombic_efficiency: must be in (0, 1], got {b.coulombic_efficiency}")
    if b.voltage_model not in VOLTAGE_MODELS:
        e(f"battery.voltage_model: {b.voltage_model!r} not one of {VOLTAGE_MODELS}")

    t = cfg.transport
    if t.mode not in TRANSPORT_MODES:
        e(f"transport.mode: {t.mode!r} not one of {TRANSPORT_MODES}")
    if t.latency_ms < 0:
        e(f"transport.latency_ms: must be >= 0, got {t.latency_ms}")
    if t.jitter_ms < 0:
        e(f"transport.jitter_ms: must be >= 0, got {t.jitter_ms}")
    elif t.jitter_ms > t.latency_ms:
        e(f"transport.jitter_ms: {t.jitter_ms} exceeds latency_ms {t.latency_ms} (delivery delay would go negative)")
    if t.seed is not None and not (isinstance(t.seed, int) and t.seed >= 0):
        e(f"transport.seed: must be a non-negative integer when set, got {t.seed!r}")
    q = t.quantization
    if q is not None:
        if not (8 <= q.bits <= 16):
            e(f"transport.quantization.bits: must be in [8, 16], got {q.bits}")
        for name, rng in (
            ("power_range_w", q.power_range_w),
            ("voltage_range_v", q.voltage_range_v),
            ("current_range_a", q.current_range_a),
        ):
            if rng is not None and not rng[0] < rng[1]:
                e(f"transport.quantization.{name}: require lo < hi, got {rng}")

    if errors:
        raise ConfigError(errors)
    return cfg


# ---------------------------------------------------------------------------
# Scenario files (JSON; see README for the schema)
# ---------------------------------------------------------------------------


# the JSON values a parameter of each plain annotated type takes
_JSON_TYPES = {float: (int, float), int: int, str: str, bool: bool}


@functools.cache
def _schema(owner: Any) -> dict[str, tuple[Any, bool]]:
    """A dataclass's or function's parameters: name -> (type, required)."""
    hints = get_type_hints(owner)
    return {name: (hints[name], p.default is p.empty) for name, p in inspect.signature(owner).parameters.items()}


def _checked(hint: Any, value: Any, path: str) -> Any:
    """A parameter's value from its JSON value: objects become dataclasses,
    ranges float tuples; ints in float fields stay ints."""
    args = get_args(hint)
    if type(None) in args:  # X | None
        if value is None:
            return None
        hint, args = args[0], get_args(args[0])
    if is_dataclass(hint) and isinstance(value, dict):
        return hint(**checked_kwargs(hint, value, path + "."))
    if get_origin(hint) is tuple and isinstance(value, list) and len(value) == len(args):
        return tuple(float(_checked(a, v, f"{path}[{i}]")) for i, (a, v) in enumerate(zip(args, value)))
    # a bool is an int in Python but not a number in JSON
    if isinstance(value, _JSON_TYPES.get(hint, ())) and (hint is bool or not isinstance(value, bool)):
        return value
    expected = "an object" if is_dataclass(hint) else "[lo, hi]" if args else hint.__name__
    raise ConfigError([f"{path}: expected {expected}, got {json.dumps(value)}"])


def checked_kwargs(owner: Any, doc: dict[str, Any], prefix: str = "") -> dict[str, Any]:
    """Keyword arguments for a dataclass or function from a JSON object: each
    key must name a parameter, each value have the JSON type of its
    annotation, and each required parameter be there. A ConfigError names
    each offending key by its dotted path."""
    schema = _schema(owner)
    errors = [f"{prefix}{key}: unknown field" for key in doc if key not in schema]
    errors += [f"{prefix}{key}: required" for key, (_, required) in schema.items() if required and key not in doc]
    if errors:
        raise ConfigError(errors)
    return {key: _checked(schema[key][0], value, prefix + key) for key, value in doc.items()}


def load_scenario(path: str | Path) -> tuple[ScenarioConfig, dict[str, Any] | None]:
    """Read and validate a scenario file; returns (config, source section)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise ConfigError([f"{path}: cannot be read as UTF-8 text ({exc})"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError([f"{path}: top level must be an object"])
    # the source section describes the input; the runner reads it
    cfg = ScenarioConfig(**checked_kwargs(ScenarioConfig, {k: v for k, v in doc.items() if k != "source"}))
    return validate_scenario(cfg), doc.get("source")


def save_scenario(cfg: ScenarioConfig, path: str | Path, source: dict[str, Any] | None = None) -> None:
    doc = asdict(cfg)
    if source is not None:
        doc["source"] = source
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def config_hash(cfg: ScenarioConfig, source: dict[str, Any] | None = None) -> str:
    """Stable digest of the scenario actually run, for artifact metadata."""
    doc = asdict(cfg)
    if source is not None:
        doc["source"] = source
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
