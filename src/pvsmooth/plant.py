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

import math
from dataclasses import dataclass

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
from .util import Columns


class PlantFault(RuntimeError):
    """Unrecoverable plant-side error; carries the offending step index."""

    def __init__(self, message: str, step: int = -1):
        super().__init__(message)
        self.step = step


class ProtocolFault(RuntimeError):
    """Bus protocol violation observed by the plant (sequence gap, fault frame)."""

    def __init__(self, message: str, step: int = -1):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class BatteryState:
    """Battery snapshot after a step."""

    soc: float
    v_terminal_v: float
    i_applied_a: float = 0.0
    clamp_events: int = 0


def open_circuit_voltage(params: BatteryParams, soc: float) -> float:
    if params.voltage_model == "linear_ocv":
        return params.v_min_v + (params.v_max_v - params.v_min_v) * soc
    return params.nominal_voltage_v


def initial_battery_state(params: BatteryParams) -> BatteryState:
    return BatteryState(
        soc=params.soc_init,
        v_terminal_v=open_circuit_voltage(params, params.soc_init),
    )


def supply_apply(i_request_a: float, supply_limit_a: float = SUPPLY_HARD_LIMIT_A) -> float:
    """Clamp a current request to the DC supply's capability.

    The supply is the series element between controller and battery; its
    +/-55 A hardware ceiling applies even if the configured limit is looser.
    """
    limit = min(supply_limit_a, SUPPLY_HARD_LIMIT_A)
    return max(-limit, min(limit, i_request_a))


def battery_step(
    state: BatteryState, params: BatteryParams, i_request_a: float, dt_s: float
) -> BatteryState:
    """Advance the battery by one interval under a requested current.

    Raises PlantFault on a non-finite request, leaving the state unchanged.
    """
    if not math.isfinite(i_request_a):
        raise PlantFault(f"non-finite current request {i_request_a}")
    if not dt_s > 0:
        raise PlantFault(f"dt_s must be > 0, got {dt_s}")

    clamp_events = state.clamp_events
    i = max(-params.current_limit_a, min(params.current_limit_a, i_request_a))

    def delta_soc(current: float) -> float:
        eta = params.coulombic_efficiency if current >= 0 else 1.0 / params.coulombic_efficiency
        return eta * current * dt_s / (3600.0 * params.capacity_ah)

    soc_new = state.soc + delta_soc(i)
    if params.enforce_soc_limits and (
        (i > 0 and soc_new > params.soc_max) or (i < 0 and soc_new < params.soc_min)
    ):
        # Block the offending direction entirely; the other stays available.
        i = 0.0
        soc_new = state.soc
        clamp_events += 1
    if soc_new < 0.0 or soc_new > 1.0:
        soc_new = max(0.0, min(1.0, soc_new))
        clamp_events += 1

    v_terminal = open_circuit_voltage(params, soc_new) + i * params.internal_resistance_ohm
    return BatteryState(
        soc=soc_new, v_terminal_v=v_terminal, i_applied_a=i, clamp_events=clamp_events
    )


# plant_trace.csv columns, in file order, with their array typecodes
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
    `sink`, if given, receives the trace block by block (see Columns).
    """

    def __init__(self, series: PowerSeries, cfg: ScenarioConfig, sink=None):
        self.series = series
        self.cfg = cfg
        self.battery = initial_battery_state(cfg.battery)
        self.trace = Columns(PLANT_TRACE_COLUMNS, sink)  # one row per applied sample
        self.k = 0  # samples applied so far
        self.held_seq = 0  # sequence number of the held setpoint
        self.held_a = 0.0  # held current request; 0 A until the first setpoint
        self.done = False

    @property
    def n_samples(self) -> int:
        return len(self.series)

    def sim_time_ms(self, sample_index: int) -> int:
        return int(round(sample_index * self.cfg.sample_period_s * 1000.0))

    def first_sensor(self) -> BusFrame:
        return sensor_frame(1, self.sim_time_ms(0), float(self.series.samples[0]), self.battery.v_terminal_v)

    def apply_interval(self, i_request_a: float) -> None:
        """Integrate one sample period under the given current request."""
        k = self.k + 1
        if k > self.n_samples:
            raise PlantFault("setpoint received past the end of the series", step=k)
        p_pv = float(self.series.samples[k - 1])
        i_supply = supply_apply(i_request_a, self.cfg.supply_limit_a)
        b = self.battery = battery_step(
            self.battery, self.cfg.battery, i_supply, self.cfg.sample_period_s
        )
        realized = b.i_applied_a * b.v_terminal_v
        t = self.trace
        t.k.append(k)
        t.p_pv_w.append(p_pv)
        t.i_request_a.append(i_request_a)
        t.i_applied_a.append(b.i_applied_a)
        t.v_terminal_v.append(b.v_terminal_v)
        t.soc.append(b.soc)
        t.realized_p_batt_w.append(realized)
        t.p_grid_w.append(p_pv - realized)
        self.k = k
        t.end_row()

    def hold(self, frame: BusFrame) -> None:
        """Hold SETPOINT(seq=held_seq+1) for the coming intervals.

        A non-finite current is rejected here, before any clamp: min/max
        clamps turn NaN into a limit value.
        """
        expected = self.held_seq + 1
        if frame.msg_type == MSG_FAULT:
            raise ProtocolFault("controller reported a fault frame", step=expected)
        if frame.msg_type != MSG_SETPOINT:
            raise ProtocolFault(f"expected SETPOINT, got {frame.type_name}", step=expected)
        if frame.seq != expected:
            raise ProtocolFault(
                f"setpoint sequence gap: expected {expected}, got {frame.seq}", step=expected
            )
        i_set_a = frame.values[0]
        if not math.isfinite(i_set_a):
            raise ProtocolFault(f"non-finite setpoint current {i_set_a}", step=expected)
        self.held_seq = expected
        self.held_a = i_set_a

    def tick(self) -> BusFrame:
        """Integrate one interval under the held setpoint; return SENSOR(k+1) or END."""
        self.apply_interval(self.held_a)
        if self.k == self.n_samples:
            self.done = True
            return end_frame(self.k + 1, self.sim_time_ms(self.k))
        return sensor_frame(
            self.k + 1,
            self.sim_time_ms(self.k),
            float(self.series.samples[self.k]),
            self.battery.v_terminal_v,
        )

    def on_setpoint(self, frame: BusFrame) -> BusFrame:
        """Lockstep step: hold SETPOINT(seq=k), then tick."""
        self.hold(frame)
        return self.tick()

    def gap_fault(self) -> BusFrame:
        self.done = True
        return fault_frame(self.k + 1, self.sim_time_ms(self.k))
