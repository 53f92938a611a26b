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

from math import isfinite

from .config import SUPPLY_HARD_LIMIT_A, BatteryParams, ScenarioConfig
from .frames import (
    MSG_FAULT,
    MSG_SETPOINT,
    BusFrame,
    end_frame,
    fault_frame,
    sensor_frame,
)
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
        soc_new = max(0.0, min(1.0, soc_new))
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


class PlantDriver:
    """Frame-level plant: emits sensor frames, holds setpoint frames.

    hold is the one place a setpoint enters the plant; tick integrates one
    sample under the held current and yields the next sensor frame (or the
    end-of-session marker). The session loop decides when a setpoint is held.
    The battery state is plain numbers: soc, v_terminal_v and clamp_events,
    the limit actions so far (see battery_step). `sink`, if given, receives
    the trace block by block (see Records).
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
        self._rows = self.trace.rows  # a hand-off empties it in place
        self._pack_row = self.trace.layout.pack
        self.k = 0  # samples applied so far
        self.held_seq = 0  # sequence number of the held setpoint
        self.held_a = 0.0  # held current request; 0 A until the first setpoint

    def sim_time_ms(self, sample_index: int) -> int:
        return round(sample_index * self.cfg.sample_period_s * 1000.0)

    def first_sensor(self) -> BusFrame:
        return sensor_frame(1, self.sim_time_ms(0), self._samples[0], self.v_terminal_v)

    def apply_interval(self, i_request_a: float) -> None:
        """Integrate one sample period under the given current request."""
        k = self.k + 1
        if k > self.n_samples:
            raise RunFault(INVARIANT, "setpoint received past the end of the series", step=k)
        p_pv = self._samples[k - 1]
        cfg = self.cfg
        i_supply = supply_apply(i_request_a, cfg.supply_limit_a)
        soc, v, i, clamps = battery_step(self.soc, cfg.battery, i_supply, cfg.sample_period_s)
        self.soc = soc
        self.v_terminal_v = v
        if clamps:
            self.clamp_events += clamps
        realized = i * v
        rows = self._rows
        rows += self._pack_row(k, p_pv, i_request_a, i, v, soc, realized, p_pv - realized)
        self.k = k
        if len(rows) >= self.trace.block_bytes:
            self.trace.hand_off()

    def hold(self, frame: BusFrame) -> None:
        """Hold SETPOINT(seq=held_seq+1) for the coming intervals.

        A non-finite current is rejected here, before any clamp: min/max
        clamps turn NaN into a limit value.
        """
        msg_type, seq, _, values = frame
        expected = self.held_seq + 1
        if msg_type != MSG_SETPOINT:
            if msg_type == MSG_FAULT:
                raise RunFault(PROTOCOL, "controller reported a fault frame", step=expected)
            raise RunFault(PROTOCOL, f"expected SETPOINT, got {frame.type_name}", step=expected)
        if seq != expected:
            raise RunFault(
                PROTOCOL, f"setpoint sequence gap: expected {expected}, got {seq}", step=expected
            )
        i_set_a = values[0]
        if not isfinite(i_set_a):
            raise RunFault(PROTOCOL, f"non-finite setpoint current {i_set_a}", step=expected)
        self.held_seq = expected
        self.held_a = i_set_a

    def tick(self) -> BusFrame:
        """Integrate one interval under the held setpoint; return SENSOR(k+1) or END."""
        self.apply_interval(self.held_a)
        k = self.k
        if k == self.n_samples:
            return end_frame(k + 1, self.sim_time_ms(k))
        return sensor_frame(k + 1, self.sim_time_ms(k), self._samples[k], self.v_terminal_v)

    def gap_fault(self) -> BusFrame:
        return fault_frame(self.k + 1, self.sim_time_ms(self.k))
