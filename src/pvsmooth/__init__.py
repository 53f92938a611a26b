"""pvsmooth: lockstep co-simulation of battery-based PV ramp-rate smoothing.

A discrete-time plant (PV playback, coulomb-counted battery, current-limited
supply) exchanges bit-exact framed messages with a moving-average smoothing
controller, and a metrics pipeline scores ramp-rate compliance and SOC
behavior of the result.
"""

__version__ = "0.1.0"

from .config import (
    BatteryParams,
    ConfigError,
    QuantizationConfig,
    ScenarioConfig,
    TransportConfig,
    load_scenario,
    save_scenario,
    validate_scenario,
)
from .controller import SmoothingController
from .ingest import IngestSpec, ingest_csv
from .ramp import RampReport, histogram, ramp_rate_series, ramp_report
from .run import RunArtifacts, run_scenario
from .series import PowerSeries, SeriesError, scale_series
from .synth import synth_pv

__all__ = [
    "BatteryParams",
    "ConfigError",
    "IngestSpec",
    "PowerSeries",
    "QuantizationConfig",
    "RampReport",
    "RunArtifacts",
    "ScenarioConfig",
    "SeriesError",
    "SmoothingController",
    "TransportConfig",
    "histogram",
    "ingest_csv",
    "load_scenario",
    "ramp_rate_series",
    "ramp_report",
    "run_scenario",
    "save_scenario",
    "scale_series",
    "synth_pv",
    "validate_scenario",
]
