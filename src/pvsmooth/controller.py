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

from array import array
from math import fsum, isfinite, nan

from .frames import (
    MSG_END,
    MSG_FAULT,
    MSG_SENSOR,
    BusFrame,
    fault_frame,
    setpoint_frame,
)
from .util import Records


class SmoothingController:
    """Stateful step-by-step smoothing controller.

    p_buf is the ring buffer of the last n samples, k the 1-based index of
    the next sample. The buffer mean is maintained as a running sum (O(1)
    per step) with a full recomputation every n steps to bound
    floating-point drift.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"window length must be >= 1, got {n}")
        self.n = n
        self.p_buf = array("d", bytes(8 * n))
        self.k = 1
        self.running_sum = 0.0

    def step(self, p_pv_w: float, v_batt_v: float) -> tuple[float, float, float, bool]:
        """Process one sensor reading and produce one setpoint.

        Returns (p_hat_w, p_batt_w, i_set_a, fault). A non-positive or
        non-finite battery voltage is a sensing fault: the PV sample still
        enters the buffer, but the emitted setpoint is a safe zero current
        and the step is flagged.
        """
        p_pv_w = float(p_pv_w)
        v_batt_v = float(v_batt_v)
        if not isfinite(p_pv_w):
            raise ValueError(f"p_pv_w must be finite, got {p_pv_w}")
        k, n, buf = self.k, self.n, self.p_buf
        pos = (k - 1) % n
        running_sum = self.running_sum - buf[pos] + p_pv_w
        buf[pos] = p_pv_w
        if k % n == 0:
            running_sum = fsum(buf)
        self.running_sum = running_sum
        self.k = k + 1
        p_hat = running_sum / n
        p_batt = p_pv_w - p_hat
        if not (isfinite(v_batt_v) and v_batt_v > 0.0):
            return p_hat, p_batt, 0.0, True
        return p_hat, p_batt, p_batt / v_batt_v, False


# controller_log.csv columns, in file order, with their struct format codes
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
# the row of a lost sample: k=0, no readings, the safe zero setpoint, flagged
LOST_ROW = (0, nan, nan, nan, nan, 0.0, False, True)


class ControllerDriver:
    """Frame-level wrapper: sensor frames in, setpoint frames out.

    Transport-agnostic; bus.ControllerPeer feeds it one frame at a time, in
    process or from a socket. Every received frame gets exactly one response
    carrying the same sequence number. Malformed input, or a sensor frame
    whose power is not finite, produces a safe zero-current setpoint (the
    sample is lost, as a corrupted analog read would be) and bumps the error
    counter. `sink`, if given, receives the log block by block (see
    Records).
    """

    def __init__(self, n: int, sink=None):
        self.controller = SmoothingController(n)
        self.log = Records(CONTROLLER_LOG_COLUMNS, sink)  # one row per sample, lost ones too
        self._rows = self.log.rows  # a hand-off empties it in place
        self._pack_row = self.log.layout.pack
        self.error_count = 0
        self.expected_seq = 1
        self.done = False

    def on_frame(self, frame: BusFrame) -> BusFrame | None:
        msg_type, seq, sim_time_ms, values = frame
        if msg_type != MSG_SENSOR:
            if msg_type == MSG_END or msg_type == MSG_FAULT:
                self.done = True
                return None
            return self.on_bad_frame()
        if seq != self.expected_seq:
            # Lockstep sequence gap: report it and stop cleanly.
            self.done = True
            return fault_frame(seq, sim_time_ms)
        p_pv, v_batt = values
        if not isfinite(p_pv):  # no sample to average: lost, as an undecodable frame's is
            return self.on_bad_frame()
        self.expected_seq = seq + 1
        c = self.controller
        p_hat, p_batt, i_set, fault = c.step(p_pv, v_batt)
        k = c.k - 1  # index of the step just taken
        rows = self._rows
        rows += self._pack_row(k, p_pv, v_batt, p_hat, p_batt, i_set, k <= c.n, fault)
        if len(rows) >= self.log.block_bytes:
            self.log.hand_off()
        return setpoint_frame(seq, sim_time_ms, i_set)

    def on_bad_frame(self) -> BusFrame:
        """Undecodable input: respond with a flagged zero setpoint."""
        self.error_count += 1
        seq = self.expected_seq
        self.expected_seq = seq + 1
        rows = self._rows
        rows += self._pack_row(*LOST_ROW)
        if len(rows) >= self.log.block_bytes:
            self.log.hand_off()
        return setpoint_frame(seq, 0, 0.0)
