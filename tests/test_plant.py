import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ideal_battery
from pvsmooth.config import BatteryParams, ScenarioConfig, validate_scenario
from pvsmooth.frames import MSG_END, MSG_SENSOR, fault_frame, setpoint_frame
from pvsmooth.plant import (
    INVARIANT,
    PROTOCOL,
    PlantDriver,
    RunFault,
    battery_step,
    open_circuit_voltage,
    supply_apply,
)
from pvsmooth.series import PowerSeries


def test_zero_current_leaves_soc():
    p = BatteryParams()
    soc, v, _, _ = battery_step(p.soc_init, p, 0.0, 5.0)
    assert soc == p.soc_init == 0.5
    assert v == open_circuit_voltage(p, 0.5) == 53.0


def test_one_hour_full_capacity_charge():
    # charging at exactly capacity_ah amps for 3600 s moves soc by +1.0
    p = BatteryParams(soc_min=0.0, soc_max=1.0, soc_init=0.0, current_limit_a=100.0)
    soc, _, _, clamps = battery_step(p.soc_init, p, p.capacity_ah, 3600.0)
    assert soc == 1.0
    assert clamps == 0


def test_overshoot_without_soc_guard_rails_at_physical_bounds():
    p = BatteryParams(soc_init=0.5, soc_min=0.0, soc_max=1.0, enforce_soc_limits=False,
                      current_limit_a=100.0)
    soc, _, _, clamps = battery_step(p.soc_init, p, p.capacity_ah, 3600.0)
    assert soc == 1.0  # 1.5 clamped to the physical ceiling
    assert clamps == 1


def test_charge_blocked_at_soc_max():
    p = BatteryParams(soc_init=0.9, soc_max=0.9)
    soc, _, i_applied, clamps = battery_step(p.soc_init, p, 10.0, 5.0)
    assert i_applied == 0.0
    assert soc == 0.9
    assert clamps == 1


def test_discharge_blocked_at_soc_min_but_charge_allowed():
    p = BatteryParams(soc_init=0.1, soc_min=0.1)
    _, _, i_applied, clamps = battery_step(p.soc_init, p, -10.0, 5.0)
    assert i_applied == 0.0 and clamps == 1
    soc, _, i_applied, _ = battery_step(p.soc_init, p, +10.0, 5.0)
    assert i_applied == 10.0 and soc > 0.1


def test_current_limit_clamps_magnitude():
    p = BatteryParams(current_limit_a=20.0)
    assert battery_step(p.soc_init, p, 35.0, 5.0)[2] == 20.0
    assert battery_step(p.soc_init, p, -35.0, 5.0)[2] == -20.0


def test_coulombic_efficiency_directional():
    p = BatteryParams(coulombic_efficiency=0.9, soc_min=0.0, soc_max=1.0)
    dt, i = 3600.0, 4.0
    soc_chg = battery_step(p.soc_init, p, +i, dt)[0]
    soc_dis = battery_step(p.soc_init, p, -i, dt)[0]
    base = i * dt / (3600.0 * p.capacity_ah)
    assert soc_chg - 0.5 == pytest.approx(0.9 * base)
    assert 0.5 - soc_dis == pytest.approx(base / 0.9)


def test_linear_ocv_model():
    p = BatteryParams(voltage_model="linear_ocv", internal_resistance_ohm=0.1)
    soc, v, _, _ = battery_step(p.soc_init, p, 10.0, 5.0)
    expect_voc = p.v_min_v + (p.v_max_v - p.v_min_v) * soc
    assert v == expect_voc + 10.0 * 0.1


def test_non_finite_request_faults_without_state_change():
    # the state is the caller's floats; battery_step raises before returning any
    p = BatteryParams()
    with pytest.raises(RunFault) as err:
        battery_step(p.soc_init, p, float("nan"), 5.0)
    assert err.value.kind == INVARIANT


def test_supply_passes_within_limits():
    assert supply_apply(10.0) == 10.0
    assert supply_apply(-54.9) == -54.9


def test_supply_hardware_ceiling():
    assert supply_apply(80.0) == 55.0
    assert supply_apply(-80.0) == -55.0
    # configured limit can tighten but never loosen the ceiling
    assert supply_apply(80.0, supply_limit_a=20.0) == 20.0
    assert supply_apply(80.0, supply_limit_a=500.0) == 55.0


# --- coulomb-count replay oracle -------------------------------------------


@given(
    currents=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=200),
    eff=st.floats(0.8, 1.0),
)
@settings(max_examples=60)
def test_soc_replay_from_applied_currents(currents, eff):
    p = BatteryParams(coulombic_efficiency=eff)
    soc = p.soc_init
    applied = []
    for i in currents:
        soc, _, i_applied, _ = battery_step(soc, p, i, 5.0)
        applied.append(i_applied)
    final = soc
    # independent naive re-accumulation of the applied currents
    soc = p.soc_init
    increments = []
    for i in applied:
        eta = eff if i >= 0 else 1.0 / eff
        increments.append(eta * i * 5.0 / (3600.0 * p.capacity_ah))
    soc = p.soc_init + math.fsum(increments)
    assert abs(final - soc) < 1e-9
    assert p.soc_min <= final <= p.soc_max


@given(
    currents=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=100),
    model=st.sampled_from(["constant", "linear_ocv"]),
)
@settings(max_examples=40)
def test_terminal_voltage_stays_in_band(currents, model):
    p = BatteryParams(voltage_model=model)
    soc = p.soc_init
    lo = p.v_min_v - p.current_limit_a * p.internal_resistance_ohm
    hi = p.v_max_v + p.current_limit_a * p.internal_resistance_ohm
    for i in currents:
        soc, v, _, _ = battery_step(soc, p, i, 5.0)
        assert lo <= v <= hi


# --- frame-level driver ---------------------------------------------------


def make_driver(values, cfg=None):
    cfg = cfg or validate_scenario(ScenarioConfig(window_s=20.0))
    series = PowerSeries(values, 5.0, 3000.0)
    return PlantDriver(series, cfg), cfg


def test_first_sensor_carries_initial_state():
    d, _ = make_driver([100.0, 200.0])
    f = d.first_sensor()
    assert f.msg_type == MSG_SENSOR
    assert f.seq == 1 and f.sim_time_ms == 0
    assert f.values == (100.0, 53.0)


def test_lockstep_sequence_and_end():
    d, _ = make_driver([100.0, 200.0, 300.0])
    d.first_sensor()
    d.hold(setpoint_frame(1, 0, 0.0))
    f2 = d.tick()
    assert f2.msg_type == MSG_SENSOR and f2.seq == 2 and f2.values[0] == 200.0
    d.hold(setpoint_frame(2, 5000, 0.0))
    f3 = d.tick()
    assert f3.seq == 3 and f3.values[0] == 300.0
    d.hold(setpoint_frame(3, 10000, 0.0))
    f4 = d.tick()
    assert f4.msg_type == MSG_END
    assert d.k == d.n_samples == len(d.trace) == 3


def test_zero_setpoints_hold_soc_and_power():
    d, _ = make_driver([100.0, 200.0, 300.0])
    d.first_sensor()
    for k in range(1, 4):
        d.hold(setpoint_frame(k, 0, 0.0))
        d.tick()
    assert d.trace.soc.tolist() == [0.5] * 3
    assert d.trace.realized_p_batt_w.tolist() == [0.0] * 3
    assert d.trace.p_grid_w.tolist() == [100.0, 200.0, 300.0]


def test_sequence_gap_raises_protocol_fault():
    d, _ = make_driver([100.0, 200.0])
    d.first_sensor()
    with pytest.raises(RunFault) as err:
        d.hold(setpoint_frame(5, 0, 0.0))
    assert err.value.kind == PROTOCOL


def test_fault_frame_raises():
    d, _ = make_driver([100.0, 200.0])
    d.first_sensor()
    with pytest.raises(RunFault) as err:
        d.hold(fault_frame(1, 0))
    assert err.value.kind == PROTOCOL


@pytest.mark.parametrize("current", [math.nan, math.inf, -math.inf])
def test_non_finite_setpoint_is_a_protocol_fault(current):
    # min/max clamps pass NaN through as a limit value (+55 A), so the plant
    # must reject it before any clamp, and integrate nothing
    d, _ = make_driver([100.0, 200.0])
    d.first_sensor()
    with pytest.raises(RunFault, match="non-finite") as err:
        d.hold(setpoint_frame(1, 0, current))
    assert err.value.kind == PROTOCOL
    assert len(d.trace) == 0
    assert d.held_seq == 0


def test_setpoint_past_series_end_faults():
    d, _ = make_driver([100.0])
    d.first_sensor()
    d.hold(setpoint_frame(1, 0, 0.0))
    d.tick()
    with pytest.raises(RunFault) as err:
        d.apply_interval(0.0)
    assert err.value.kind == INVARIANT


def test_requested_vs_realized_divergence_logged():
    d, _ = make_driver([100.0, 200.0])
    d.first_sensor()
    d.hold(setpoint_frame(1, 0, 80.0))  # over the 55 A supply ceiling
    d.tick()
    t = d.trace
    assert t.i_request_a[0] == 80.0
    assert t.i_applied_a[0] == 55.0
    assert t.realized_p_batt_w[0] == 55.0 * t.v_terminal_v[0]


def test_closed_loop_constant_pv_settles():
    # ideal battery, power-of-two voltage: warm-up currents then exactly zero
    cfg = validate_scenario(
        ScenarioConfig(window_s=20.0, battery=ideal_battery(64.0))
    )
    n_steps = 12
    series = PowerSeries([1200.0] * n_steps, 5.0, 3000.0)
    plant = PlantDriver(series, cfg)
    frame = plant.first_sensor()
    n = cfg.n_window
    buf_sum = 0.0
    k = 0
    while frame.msg_type == MSG_SENSOR:
        k += 1
        p_pv, v = frame.values
        p_hat = 1200.0 * min(k, n) / n
        i_set = (p_pv - p_hat) / v
        plant.hold(setpoint_frame(k, frame.sim_time_ms, i_set))
        frame = plant.tick()
    # independent coulomb accumulation of the analytic warm-up currents
    cap_ah = 1e9 / 64.0
    soc = 0.5
    for j in range(1, n_steps + 1):
        p_hat = 1200.0 * min(j, n) / n
        soc = soc + ((1200.0 - p_hat) / 64.0) * 5.0 / (3600.0 * cap_ah)
    t = plant.trace
    assert t.soc[-1] == soc
    # after warm-up the setpoint is exactly zero and soc stops moving
    assert t.i_applied_a[n:].tolist() == [0.0] * (n_steps - n)
    assert t.soc[n:].tolist() == [t.soc[n - 1]] * (n_steps - n)
