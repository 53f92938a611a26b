"""Discrete-time plant: PV playback, battery model, and supply limits.

The plant owns every safety limit in the loop. A current setpoint passes
through the supply clamp (hardware ceiling +/-55 A), then the battery's own
current limit, then a directional SOC guard that blocks charge at soc_max and
discharge at soc_min. SOC is ideal coulomb counting:

    soc' = soc + eta_dir * i * dt / (3600 * capacity_ah)

with eta_dir = coulombic_efficiency while charging and its inverse while
discharging (charging current is positive throughout).
"""

from __future__ import annotations

from collections.abc import Generator
from math import isfinite

from .config import SUPPLY_HARD_LIMIT_A, BatteryParams, ScenarioConfig
from .frames import MSG_FAULT, BusFrame
from .series import PowerSeries
from .util import Records


# RunFault kinds, named as the command line reports them
INVARIANT = "invariant breach"  # a safety limit or run invariant broke
PROTOCOL = "protocol fault"  # the bus broke: sequence gap, fault frame, dead peer


class RunFault(RuntimeError):
    """A fault that ends the run: `kind` is INVARIANT or PROTOCOL, `step`
    the offending step index (-1 if none)."""

    def __init__(self, kind: str, message: str, step: int = -1):
        super().__init__(message)
        self.kind = kind
        self.step = step


def open_circuit_voltage(params: BatteryParams, soc: float) -> float:
    if params.voltage_model == "linear_ocv":
        return params.v_min_v + (params.v_max_v - params.v_min_v) * soc
    return params.nominal_voltage_v


def supply_apply(i_request_a: float, supply_limit_a: float = SUPPLY_HARD_LIMIT_A) -> float:
    """Clamp a current request to the DC supply's capability.

    The supply is the series element between controller and battery; its
    +/-55 A hardware ceiling applies even if the configured limit is looser.
    """
    # max(-limit, min(limit, i_request_a)) with limit = min(supply_limit_a,
    # SUPPLY_HARD_LIMIT_A), written as comparisons: they pick the same
    # operand as the builtins do, at a fraction of the cost
    limit = SUPPLY_HARD_LIMIT_A if SUPPLY_HARD_LIMIT_A < supply_limit_a else supply_limit_a
    i = i_request_a if i_request_a < limit else limit
    return i if i > -limit else -limit


def battery_step(
    soc: float, params: BatteryParams, i_request_a: float, dt_s: float
) -> tuple[float, float, float, int]:
    """Advance the battery from `soc` by one interval under a requested current.

    Returns (soc, terminal voltage, applied current, clamps), where clamps
    counts the limits that acted: the SOC guard and the hard [0, 1] clamp.
    The hard clamp applies only the current that takes soc to the bound it
    would cross, so the applied current is always what moved soc.
    Raises an INVARIANT RunFault on a non-finite request.
    """
    if not isfinite(i_request_a):
        raise RunFault(INVARIANT, f"non-finite current request {i_request_a}")
    if not dt_s > 0:
        raise RunFault(INVARIANT, f"dt_s must be > 0, got {dt_s}")

    clamps = 0
    limit = params.current_limit_a
    i = i_request_a if i_request_a < limit else limit  # clamped as in supply_apply
    i = i if i > -limit else -limit
    eta = params.coulombic_efficiency if i >= 0 else 1.0 / params.coulombic_efficiency
    soc_new = soc + eta * i * dt_s / (3600.0 * params.capacity_ah)
    if params.enforce_soc_limits and (
        (i > 0 and soc_new > params.soc_max) or (i < 0 and soc_new < params.soc_min)
    ):
        # Block the offending direction entirely; the other stays available.
        i = 0.0
        soc_new = soc
        clamps = 1
    if soc_new < 0.0 or soc_new > 1.0:
        soc_new = 0.0 if soc_new < 0.0 else 1.0
        i = (soc_new - soc) * (3600.0 * params.capacity_ah) / (eta * dt_s)
        clamps += 1

    v_terminal = open_circuit_voltage(params, soc_new) + i * params.internal_resistance_ohm
    return soc_new, v_terminal, i, clamps


# plant_trace.csv columns, in file order, with their struct format codes
PLANT_TRACE_COLUMNS = {
    "k": "q",
    "p_pv_w": "d",
    "i_request_a": "d",
    "i_applied_a": "d",
    "v_terminal_v": "d",
    "soc": "d",
    "realized_p_batt_w": "d",
    "p_grid_w": "d",
}


# a setpoint the plant holds: the (seq, sim_time_ms, i_set_a) of an intact
# SETPOINT frame; any other decoded frame in its place is refused
Setpoint = tuple[int, int, float] | BusFrame
# a plant reading: (seq, sim_time_ms, p_pv_w, v_terminal_v), what sensor
# frame seq carries; END's has None for both values
Reading = tuple[int, int, float | None, float | None]


class PlantDriver:
    """The plant's side of a session: readings out, setpoints in.

    hold is the one place a setpoint enters the plant, and apply_interval
    integrates one sample under a current and returns the next reading; the
    session loop decides what is held and when. first_reading is sensor
    frame 1's, taken before any interval. The battery state (soc,
    v_terminal_v and clamp_events, the limit actions so far; see
    battery_step) and k, the samples applied, are current once the last
    interval is applied. `sink`, if given, receives the trace block by
    block (see Records).
    """

    def __init__(self, series: PowerSeries, cfg: ScenarioConfig, sink=None):
        self.cfg = cfg
        self.n_samples = len(series)
        self._samples = memoryview(series.samples)  # Python floats, no copy
        b = cfg.battery
        self.soc = b.soc_init
        self.v_terminal_v = open_circuit_voltage(b, b.soc_init)
        self.clamp_events = 0
        self.trace = Records(PLANT_TRACE_COLUMNS, sink)  # one row per applied sample
        self.k = 0  # samples applied so far
        self.held_seq = 0  # sequence number of the held setpoint
        intervals = self._intervals()
        self.first_reading: Reading = next(intervals)
        self._integrate = intervals.send

    def sim_time_ms(self, sample_index: int) -> int:
        return round(sample_index * self.cfg.sample_period_s * 1000.0)

    def hold(self, setpoint: Setpoint) -> float:
        """Hold SETPOINT(seq=held_seq+1) for the coming intervals; returns
        its current. Anything else is a PROTOCOL RunFault.

        A non-finite current is rejected here, before any clamp: min/max
        clamps turn NaN into a limit value.
        """
        expected = self.held_seq + 1
        if len(setpoint) != 3:
            if setpoint.msg_type == MSG_FAULT:
                raise RunFault(PROTOCOL, "controller reported a fault frame", step=expected)
            raise RunFault(PROTOCOL, f"expected SETPOINT, got {setpoint.type_name}", step=expected)
        seq, _, i_set_a = setpoint
        if seq != expected:
            raise RunFault(PROTOCOL, f"setpoint sequence gap: expected {expected}, got {seq}", step=expected)
        if not isfinite(i_set_a):
            raise RunFault(PROTOCOL, f"non-finite setpoint current {i_set_a}", step=expected)
        self.held_seq = expected
        return i_set_a

    def apply_interval(self, i_request_a: float) -> Reading:
        """Integrate one sample period under the given current request;
        returns the next reading (END's after the last sample)."""
        return self._integrate(i_request_a)

    def _intervals(self) -> Generator[Reading, float, None]:
        """apply_interval's integration, one resume per interval, its state
        in local variables; the plant's attributes take it once the last
        interval is applied, or the integration stops."""
        samples, n, sim_time_ms = self._samples, self.n_samples, self.sim_time_ms
        params, dt, supply_limit_a = self.cfg.battery, self.cfg.sample_period_s, self.cfg.supply_limit_a
        trace = self.trace
        rows, pack_row, block_bytes = trace.rows, trace.layout.pack, trace.block_bytes  # a hand-off empties rows in place
        soc, v, clamp_events = self.soc, self.v_terminal_v, 0
        k = 0
        try:
            while k < n:
                p_pv = samples[k]
                i_request_a = yield k + 1, sim_time_ms(k), p_pv, v
                k += 1
                soc, v, i, clamps = battery_step(soc, params, supply_apply(i_request_a, supply_limit_a), dt)
                clamp_events += clamps
                realized = i * v
                rows += pack_row(k, p_pv, i_request_a, i, v, soc, realized, p_pv - realized)
                if len(rows) >= block_bytes:
                    trace.hand_off()
            self.k, self.soc, self.v_terminal_v, self.clamp_events = k, soc, v, clamp_events
            yield k + 1, sim_time_ms(k), None, None
            raise RunFault(INVARIANT, "setpoint received past the end of the series", step=k + 1)
        finally:
            self.k, self.soc, self.v_terminal_v, self.clamp_events = k, soc, v, clamp_events
