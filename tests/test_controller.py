import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_zero_padded_mean, smooth_array
from pvsmooth.bus import ControllerPeer, SocketEndpoint
from pvsmooth.controller import ControllerDriver, SmoothingController
from pvsmooth.frames import (
    MSG_FAULT,
    MSG_SETPOINT,
    decode_frame,
    encode_frame,
    end_frame,
    fault_frame,
    sensor_frame,
)


def test_first_sample_mean_over_zero_buffer():
    # N=4, one 8 W sample against three zero-filled slots
    c = SmoothingController(4)
    p_hat, p_batt, i_set, fault = c.step(8.0, 2.0)
    assert p_hat == 2.0
    assert p_batt == 6.0
    assert i_set == 3.0
    assert not fault


def test_constant_input_steady_state():
    c = SmoothingController(4)
    for _ in range(4):
        p_hat, p_batt, i_set, _ = c.step(1000.0, 50.0)
    assert p_hat == 1000.0
    assert p_batt == 0.0
    assert i_set == 0.0
    p_hat, p_batt, i_set, _ = c.step(1000.0, 50.0)
    assert (p_hat, p_batt, i_set) == (1000.0, 0.0, 0.0)


def test_hand_summed_window():
    c = SmoothingController(4)
    for p in (0.0, 4.0, 8.0):
        c.step(p, 1.0)
    p_hat, p_batt, _, _ = c.step(4.0, 1.0)
    assert p_hat == 4.0  # (0+4+8+4)/4
    assert p_batt == 0.0


def test_ring_buffer_wraps():
    c = SmoothingController(3)
    for p in (3.0, 6.0, 9.0, 12.0):
        p_hat = c.step(p, 1.0)[0]
    # buffer now holds [12, 6, 9]
    assert np.array_equal(np.sort(c.p_buf), [6.0, 9.0, 12.0])
    assert p_hat == 9.0


def test_bad_voltage_is_flagged_zero_current():
    c = SmoothingController(4)
    for v in (0.0, -5.0, float("nan"), float("inf")):
        _, _, i_set, fault = c.step(8.0, v)
        assert fault
        assert i_set == 0.0
    # the PV samples still entered the buffer
    assert c.k == 5


def test_non_finite_power_rejected():
    c = SmoothingController(4)
    with pytest.raises(ValueError):
        c.step(float("nan"), 50.0)


def test_window_length_must_be_positive():
    with pytest.raises(ValueError):
        SmoothingController(0)


def test_state_invariants():
    c = SmoothingController(5)
    assert c.p_buf.tolist() == [0.0] * 5
    assert c.k == 1
    c.step(7.0, 1.0)
    assert c.p_buf[0] == 7.0 and c.k == 2


# --- properties -----------------------------------------------------------


@given(
    n=st.integers(1, 50),
    values=st.lists(st.floats(0.0, 3000.0), min_size=1, max_size=300),
)
@settings(max_examples=100)
def test_oracle_equivalence(n, values):
    c = SmoothingController(n)
    got = smooth_array(c, np.array(values))
    want = naive_zero_padded_mean(np.array(values), n)
    # scale-aware absolute floor: ~ulp of the rated/window work scale
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * 3000.0 / n)


@given(values=st.lists(st.floats(0.0, 1000.0), min_size=2, max_size=200))
@settings(max_examples=100)
def test_step_bound(values):
    n = 8
    c = SmoothingController(n)
    p_hat = smooth_array(c, np.array(values))
    steps = np.abs(np.diff(p_hat))
    assert steps.max() <= 1000.0 / n + 1e-9


@given(values=st.lists(st.floats(0.0, 3000.0), min_size=1, max_size=100))
def test_conservation_bitwise(values):
    c = SmoothingController(16)
    for p in values:
        p_hat, p_batt, i_set, _ = c.step(p, 48.0)
        assert p_batt == p - p_hat
        assert i_set == p_batt / 48.0


@given(values=st.lists(st.floats(0.0, 3000.0), min_size=1, max_size=30))
def test_warmup_equals_left_fold_mean_bitwise(values):
    # before the buffer wraps, p_hat is the plain running mean of the inputs
    n = 32
    c = SmoothingController(n)
    acc = 0.0
    for p in values:
        p_hat = c.step(p, 50.0)[0]
        acc = acc + p
        assert p_hat == acc / n


def test_smooth_array_matches_step_bitwise():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 3000.0, 500)
    a = smooth_array(SmoothingController(60), x)
    c = SmoothingController(60)
    b = np.array([c.step(float(p), 50.0)[0] for p in x])
    assert np.array_equal(a, b)


# --- frame-level driver ---------------------------------------------------


def answerer(d: ControllerDriver):
    """Answer one frame at a time through d's coroutine: frame in, decoded
    reply (or None) out."""
    replies = d.replies()
    next(replies)

    def answer(frame):
        reply = replies.send(encode_frame(frame))
        return None if reply is None else decode_frame(reply)

    return answer


def test_driver_answers_every_sensor_frame():
    d = ControllerDriver(n=4)
    answer = answerer(d)
    for k in range(1, 11):
        reply = answer(sensor_frame(k, (k - 1) * 5000, 100.0 * k, 50.0))
        assert reply is not None
        assert reply.msg_type == MSG_SETPOINT
        assert reply.seq == k
    assert len(d.log) == 10
    assert d.error_count == 0


def test_driver_end_frame_stops():
    d = ControllerDriver(n=4)
    assert answerer(d)(end_frame(1, 0)) is None
    assert d.done
    assert len(d.log) == 0


def test_driver_bad_frame_emits_safe_zero():
    d = ControllerDriver(n=4)
    answerer(d)(sensor_frame(1, 0, 100.0, 50.0))
    reply = decode_frame(d.on_bad_frame())
    assert reply.msg_type == MSG_SETPOINT
    assert reply.seq == 2
    assert reply.values == (0.0,)
    assert d.error_count == 1
    assert d.log.fault[-1]
    # the lost sample did not advance the averaging buffer
    assert d.controller.k == 2


def test_driver_detects_sequence_gap():
    d = ControllerDriver(n=4)
    answer = answerer(d)
    answer(sensor_frame(1, 0, 100.0, 50.0))
    reply = answer(sensor_frame(3, 10000, 100.0, 50.0))
    assert reply.msg_type == MSG_FAULT
    assert d.done


def test_driver_warmup_flag():
    d = ControllerDriver(n=2)
    answer = answerer(d)
    for k in range(1, 5):
        answer(sensor_frame(k, 0, 10.0, 50.0))
    assert d.log.warmup.tolist() == [1, 1, 0, 0]


def test_zero_frames_is_clean():
    d = ControllerDriver(n=4)
    answerer(d)(end_frame(1, 0))
    assert len(d.log) == 0 and d.error_count == 0


def serve_script(*chunks: bytes):
    """Serve a controller over a message socket pair whose plant end sends
    each chunk as one message and then closes for writing; returns (driver,
    reply frames)."""
    plant_end, controller_end = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
    with plant_end, controller_end:
        for chunk in chunks:
            plant_end.sendall(chunk)
        plant_end.shutdown(socket.SHUT_WR)
        peer = ControllerPeer(4)
        SocketEndpoint(controller_end).serve(peer)
        controller_end.shutdown(socket.SHUT_WR)
        frames = []
        while reply := plant_end.recv(4096):  # one frame per message
            frames.append(decode_frame(reply))
    return peer.driver, frames


def test_serve_loop_corruption_end_and_eof():
    corrupt = bytearray(encode_frame(sensor_frame(2, 5000, 200.0, 50.0)))
    corrupt[-1] ^= 0x01  # crc mismatch, length intact
    driver, sent = serve_script(
        encode_frame(sensor_frame(1, 0, 100.0, 50.0)),
        bytes(corrupt),
        encode_frame(sensor_frame(3, 10000, 300.0, 50.0)),
        encode_frame(end_frame(4, 15000)),
    )
    assert driver.done
    assert [f.seq for f in sent] == [1, 2, 3]
    assert sent[1].values == (0.0,)  # safe zero for the corrupt frame
    assert driver.error_count == 1
    assert len(driver.log) == 3 and driver.log.fault.tolist() == [0, 1, 0]


@pytest.mark.parametrize("p_pv_w", [float("nan"), float("inf"), float("-inf")])
def test_serve_loop_answers_a_non_finite_power_as_a_lost_sample(p_pv_w):
    # a CRC-valid frame whose power cannot be averaged is lost like a corrupt
    # one: safe zero reply with its seq, counted, and the session goes on
    driver, sent = serve_script(*(encode_frame(f) for f in (
        sensor_frame(1, 0, 100.0, 50.0),
        sensor_frame(2, 5000, p_pv_w, 50.0),
        sensor_frame(3, 10000, 300.0, 50.0),
        end_frame(4, 15000),
    )))
    assert driver.done
    assert [(f.seq, f.values) for f in sent] == [(1, sent[0].values), (2, (0.0,)), (3, sent[2].values)]
    assert driver.error_count == 1
    assert driver.log.k.tolist() == [1, 0, 2] and driver.log.fault.tolist() == [0, 1, 0]


def test_serve_loop_transport_close_is_clean():
    driver, sent = serve_script(encode_frame(sensor_frame(1, 0, 100.0, 50.0)))  # EOF after one frame
    assert not driver.done  # closed, not ended; log flushed as-is
    assert len(driver.log) == 1 and len(sent) == 1


@pytest.mark.parametrize("cut, replies", [(10, 1), (20, 1), (30, 1)])
def test_serve_loop_frame_cut_short_by_close(cut, replies):
    # a message cut short inside the header, right after it or inside the
    # body is a truncated frame: a lost sample with a safe zero reply
    driver, sent = serve_script(encode_frame(sensor_frame(1, 0, 100.0, 50.0))[:cut])
    assert [(f.msg_type, f.seq, f.values) for f in sent] == [(MSG_SETPOINT, 1, (0.0,))] * replies
    assert driver.error_count == replies
    assert driver.log.fault.tolist() == [1] * replies
    assert not driver.done


@pytest.mark.parametrize("last", ["end", "fault", "gap"])
def test_serve_loop_stops_at_the_end_of_the_session(last):
    # after END, FAULT or a sequence gap the loop reads nothing more, so a
    # frame the plant sends after it goes unanswered
    first = encode_frame(sensor_frame(1, 0, 100.0, 50.0))
    ending = {
        "end": encode_frame(end_frame(2, 5000)),
        "fault": encode_frame(fault_frame(2, 5000)),
        "gap": encode_frame(sensor_frame(3, 10000, 300.0, 50.0)),
    }[last]
    driver, sent = serve_script(first, ending, encode_frame(sensor_frame(2, 5000, 200.0, 50.0)))
    assert driver.done
    assert [(f.msg_type, f.seq) for f in sent] == [(MSG_SETPOINT, 1)] + [(MSG_FAULT, 3)] * (last == "gap")
    assert len(driver.log) == 1
