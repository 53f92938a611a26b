"""Moving-average PV smoothing controller.

The controller keeps a ring buffer of the last N PV power samples
(zero-filled at start), and on every sample k:

    1) insert the new sample at position ((k-1) mod N) + 1
    2) smoothed power   p_hat  = mean of the buffer
    3) battery power    p_batt = p_pv - p_hat   (positive = charge)
    4) current setpoint i_set  = p_batt / v_batt

The battery therefore absorbs whatever the PV produces above its recent
average and injects the deficit below it. The controller itself applies no
rate limiting and no SOC feedback; safety limits belong to the plant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .frames import (
    MSG_END,
    MSG_FAULT,
    MSG_SENSOR,
    BusFrame,
    FrameError,
    fault_frame,
    setpoint_frame,
)
from .util import Columns


class ControllerOutput(NamedTuple):
    """One control step's result."""

    p_hat_w: float
    p_batt_w: float
    i_set_a: float
    fault: bool = False


@dataclass
class ControllerState:
    """Ring buffer plus bookkeeping; confined to one execution context."""

    n: int
    p_buf: np.ndarray = field(init=False)
    k: int = field(init=False, default=1)  # 1-based index of the next sample
    running_sum: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"window length must be >= 1, got {self.n}")
        self.p_buf = np.zeros(self.n, dtype=np.float64)


class SmoothingController:
    """Stateful step-by-step smoothing controller.

    The buffer mean is maintained as a running sum (O(1) per step) with a
    full recomputation every N steps to bound floating-point drift.
    """

    def __init__(self, n: int):
        self.state = ControllerState(n=n)

    def _advance(self, p_pv_w: float) -> float:
        """Insert one sample and return the new buffer mean."""
        st = self.state
        pos = (st.k - 1) % st.n
        old = float(st.p_buf[pos])
        st.p_buf[pos] = p_pv_w
        st.running_sum = st.running_sum - old + p_pv_w
        if st.k % st.n == 0:
            st.running_sum = math.fsum(st.p_buf)
        p_hat = st.running_sum / st.n
        st.k += 1
        return p_hat

    def step(self, p_pv_w: float, v_batt_v: float) -> ControllerOutput:
        """Process one sensor reading and produce one setpoint.

        A non-positive or non-finite battery voltage is a sensing fault: the
        PV sample still enters the buffer, but the emitted setpoint is a safe
        zero current and the step is flagged.
        """
        p_pv_w = float(p_pv_w)
        v_batt_v = float(v_batt_v)
        if not math.isfinite(p_pv_w):
            raise ValueError(f"p_pv_w must be finite, got {p_pv_w}")
        p_hat = self._advance(p_pv_w)
        p_batt = p_pv_w - p_hat
        if not (math.isfinite(v_batt_v) and v_batt_v > 0.0):
            return ControllerOutput(p_hat, p_batt, 0.0, fault=True)
        return ControllerOutput(p_hat, p_batt, p_batt / v_batt_v)

    def smooth_array(self, p_pv_w: np.ndarray) -> np.ndarray:
        """Buffer means for a whole input array, via the same per-step arithmetic."""
        out = np.empty(len(p_pv_w), dtype=np.float64)
        advance = self._advance
        for i, p in enumerate(p_pv_w):
            out[i] = advance(float(p))
        return out


# controller_log.csv columns, in file order, with their array typecodes
CONTROLLER_LOG_COLUMNS = {
    "k": "q",
    "p_pv_w": "d",
    "v_batt_v": "d",
    "p_hat_w": "d",
    "p_batt_w": "d",
    "i_set_a": "d",
    "warmup": "b",
    "fault": "b",
}


class ControllerDriver:
    """Frame-level wrapper: sensor frames in, setpoint frames out.

    Transport-agnostic; the in-process bus peer or a blocking endpoint loop
    feeds it one frame at a time. Every received frame gets exactly one response
    carrying the same sequence number. Malformed input produces a safe
    zero-current setpoint (the sample is lost, as a corrupted analog read
    would be) and bumps the error counter. `sink`, if given, receives the
    log block by block (see Columns).
    """

    def __init__(self, n: int, sink=None):
        self.controller = SmoothingController(n)
        self.log = Columns(CONTROLLER_LOG_COLUMNS, sink)  # one row per sample, lost ones too
        self.error_count = 0
        self.expected_seq = 1
        self.done = False

    def on_frame(self, frame: BusFrame) -> BusFrame | None:
        if frame.msg_type == MSG_END:
            self.done = True
            return None
        if frame.msg_type == MSG_FAULT:
            self.done = True
            return None
        if frame.msg_type != MSG_SENSOR:
            return self.on_bad_frame()
        seq = frame.seq
        if seq != self.expected_seq:
            # Lockstep sequence gap: report it and stop cleanly.
            self.done = True
            return fault_frame(seq, frame.sim_time_ms)
        self.expected_seq = seq + 1
        p_pv, v_batt = frame.values
        out = self.controller.step(p_pv, v_batt)
        k = self.controller.state.k - 1  # index of the step just taken
        self._log_row(k, p_pv, v_batt, out.p_hat_w, out.p_batt_w, out.i_set_a,
                      k <= self.controller.state.n, out.fault)
        return setpoint_frame(seq, frame.sim_time_ms, out.i_set_a)

    def _log_row(self, k, p_pv_w, v_batt_v, p_hat_w, p_batt_w, i_set_a, warmup, fault) -> None:
        log = self.log
        log.k.append(k)
        log.p_pv_w.append(p_pv_w)
        log.v_batt_v.append(v_batt_v)
        log.p_hat_w.append(p_hat_w)
        log.p_batt_w.append(p_batt_w)
        log.i_set_a.append(i_set_a)
        log.warmup.append(warmup)
        log.fault.append(fault)
        log.end_row()

    def on_bad_frame(self) -> BusFrame:
        """Undecodable input: respond with a flagged zero setpoint."""
        self.error_count += 1
        seq = self.expected_seq
        self.expected_seq = seq + 1
        nan = math.nan
        self._log_row(0, nan, nan, nan, nan, 0.0, False, True)
        return setpoint_frame(seq, 0, 0.0)


def run_controller(endpoint, n: int, sink=None) -> ControllerDriver:
    """Serve a bus endpoint until the peer ends the session or disconnects.

    Blocking loop suitable for a thread or a dedicated process; in-process
    sessions drive a ControllerDriver directly instead (bus.ControllerPeer).
    With a sink, the log's full blocks are handed to it from this loop; the
    rows of the last, partial block stay in driver.log.
    """
    driver = ControllerDriver(n, sink)
    while not driver.done:
        try:
            frame = endpoint.recv()
        except FrameError:
            endpoint.send(driver.on_bad_frame())
            continue
        except EOFError:
            break  # transport closed; log stays as flushed so far
        reply = driver.on_frame(frame)
        if reply is not None:
            endpoint.send(reply)
    return driver
