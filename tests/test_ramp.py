import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_bins, direct_ramp_rates
from pvsmooth.ramp import (
    RampMetricError,
    histogram,
    ramp_rate_series,
    ramp_report,
    warmup_skip_count,
)
from pvsmooth.series import PowerSeries, scale_series


def test_constant_series_all_zero():
    s = PowerSeries([500.0] * 30, 5.0, 1000.0)
    rr = ramp_rate_series(s, 60.0)
    assert np.array_equal(rr, np.zeros(2))


def test_full_range_step_in_one_minute_is_100():
    s = PowerSeries([0.0, 3000.0], 60.0, 3000.0)
    assert ramp_rate_series(s, 60.0).tolist() == [100.0]


def test_hand_evaluated_five_second_step():
    # dP = +150 W over 5 s at 3 kW rated: 100 * 150 / ((5/60) * 3000) = 60
    s = PowerSeries([1000.0, 1150.0], 5.0, 3000.0)
    assert ramp_rate_series(s, 5.0).tolist() == [60.0]


def test_point_count_invariant():
    for n in (13, 24, 25, 100):
        s = PowerSeries(np.linspace(0, 900, n), 5.0, 1000.0)
        rr = ramp_rate_series(s, 60.0)
        assert rr.size == (n - 1) * 5 // 60


def test_interval_must_sit_on_grid():
    s = PowerSeries([1.0] * 100, 5.0, 10.0)
    with pytest.raises(RampMetricError, match="multiple"):
        ramp_rate_series(s, 13.0)


def test_series_must_cover_one_interval():
    s = PowerSeries([1.0] * 12, 5.0, 10.0)
    with pytest.raises(RampMetricError, match="cover"):
        ramp_rate_series(s, 60.0)


def test_sliding_mode_evaluates_every_sample():
    s = PowerSeries(np.arange(20.0), 5.0, 100.0)
    rr = ramp_rate_series(s, 10.0, sliding=True)
    assert rr.size == 18
    # linear input: every sliding evaluation sees the same slope
    assert np.allclose(rr, rr[0], rtol=1e-12)


def test_sign_preserved():
    s = PowerSeries([1000.0, 400.0], 60.0, 1000.0)
    assert ramp_rate_series(s, 60.0)[0] < 0


# --- compliance -----------------------------------------------------------
# One-minute samples at 1 kW rated, scored over 60 s: each 10 W step is
# 1 %/min.


def minute_trace(samples):
    return PowerSeries(samples, 60.0, 1000.0)


def test_compliance_all_under_limit():
    rep = ramp_report(minute_trace([500.0, 467.0, 477.0, 510.0]), 60.0, 5.0)
    assert rep.rr_pct_per_min.tolist() == pytest.approx([-3.3, 1.0, 3.3])
    assert rep.passed and rep.violation_count == 0


def test_compliance_single_spike_fails():
    # a 56 %/min event against the 5 %/min limit
    rep = ramp_report(minute_trace([100.0, 110.0, 670.0, 650.0]), 60.0, 5.0)
    assert rep.rr_pct_per_min.tolist() == pytest.approx([1.0, 56.0, -2.0])
    assert not rep.passed
    assert rep.violation_count == 1
    assert rep.violation_fraction == pytest.approx(1 / 3)


def test_compliance_zero_limit_constant_series():
    s = PowerSeries([700.0] * 30, 5.0, 1000.0)
    assert ramp_report(s, 60.0, 0.0).passed


def test_compliance_warmup_skip():
    trace = minute_trace([0.0, 990.0, 0.0, 10.0, 30.0])  # 99, -99, 1, 2 %/min
    assert ramp_report(trace, 60.0, 5.0).violation_count == 2
    rep = ramp_report(trace, 60.0, 5.0, warmup_s=120.0)
    assert rep.passed
    assert rep.warmup_skipped == 2
    assert rep.rr_pct_per_min.size - rep.warmup_skipped == 2


def test_compliance_negative_limit_rejected():
    with pytest.raises(RampMetricError, match="limit must be >= 0"):
        ramp_report(minute_trace([500.0, 510.0]), 60.0, -1.0)


# --- histogram ------------------------------------------------------------


def test_histogram_all_zero_single_center_bin():
    h = histogram(np.array([0.0, 0.0, 0.0]), 1.0)
    assert h.counts.tolist() == [3]
    assert h.bin_edges.tolist() == [-0.5, 0.5]


def test_histogram_against_brute_force():
    rates = np.array([-1.2, 0.4, 3.7])
    h = histogram(rates, 1.0)
    assert h.counts.sum() == rates.size
    assert h.counts.tolist() == brute_force_bins(rates, h.bin_edges)
    # zero is a bin center
    mid = len(h.counts) // 2
    assert h.bin_edges[mid] == -0.5 and h.bin_edges[mid + 1] == 0.5


def test_histogram_single_covering_bin():
    rates = np.linspace(-5.0, 5.0, 11)
    h = histogram(rates, 10.0)
    assert h.counts.tolist() == [11]


def test_histogram_empty_rejected():
    with pytest.raises(RampMetricError, match="empty"):
        histogram(np.array([]), 1.0)


@given(
    rates=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=200),
    width=st.sampled_from([0.5, 1.0, 2.5]),
)
def test_histogram_counts_sum_and_match_brute_force(rates, width):
    h = histogram(np.array(rates), width)
    assert int(h.counts.sum()) == len(rates)
    assert h.counts.tolist() == brute_force_bins(rates, h.bin_edges)


# --- report + warm-up -----------------------------------------------------


def test_report_matches_direct_evaluation():
    rng = np.random.default_rng(5)
    samples = rng.uniform(0, 1000.0, 200)
    s = PowerSeries(samples, 5.0, 1000.0)
    rep = ramp_report(s, 60.0, 5.0)
    want = direct_ramp_rates(samples, 12, 60.0, 1000.0)
    assert np.array_equal(rep.rr_pct_per_min, want)
    assert rep.max_abs_rr == np.abs(want).max()
    assert int(rep.histogram.counts.sum()) == want.size


def test_warmup_skip_count_standard_config():
    # N=360 warm-up, 12-sample stride: points at i=12..360 touch warm-up data
    assert warmup_skip_count(119, 1800.0, 5.0, 60.0) == 30
    assert warmup_skip_count(10, 1800.0, 5.0, 60.0) == 10
    assert warmup_skip_count(119, 0.0, 5.0, 60.0) == 0


def test_warmup_skip_count_rejects_an_interval_under_one_sample():
    # 2 s over a 5 s grid rounds to a stride of 0 samples
    for sliding in (False, True):
        with pytest.raises(RampMetricError, match="under one sample period"):
            warmup_skip_count(10, 60.0, 5.0, 2.0, sliding=sliding)


def test_warmup_skip_count_sliding():
    # sliding points sit at i = stride + j; the first one clear of a 60 s
    # warm-up (12 samples) compares i=24 against i=12
    assert warmup_skip_count(100, 60.0, 5.0, 60.0, sliding=True) == 12
    rep = ramp_report(
        PowerSeries(np.linspace(0, 900, 100), 5.0, 1000.0), 60.0, 5.0,
        warmup_s=60.0, sliding=True,
    )
    assert rep.warmup_skipped == 12
    assert rep.rr_pct_per_min.size == 88


def test_report_warmup_exclusion_changes_stats():
    samples = np.concatenate([np.full(60, 0.0), np.full(60, 1000.0)]).astype(float)
    samples[30] = 900.0  # early spike, inside warm-up
    s = PowerSeries(samples, 5.0, 1000.0)
    full = ramp_report(s, 60.0, 5.0)
    cut = ramp_report(s, 60.0, 5.0, warmup_s=300.0)
    assert cut.warmup_skipped > 0
    assert cut.max_abs_rr <= full.max_abs_rr
    assert np.array_equal(cut.rr_pct_per_min, full.rr_pct_per_min)


# --- properties -----------------------------------------------------------


@given(
    values=st.lists(st.floats(0.0, 1000.0), min_size=13, max_size=120),
    factor=st.floats(0.01, 100.0),
)
@settings(max_examples=60)
def test_scaling_invariance(values, factor):
    s = PowerSeries(values, 5.0, 1000.0)
    rr_a = ramp_rate_series(s, 60.0)
    rr_b = ramp_rate_series(scale_series(s, 1000.0 * factor), 60.0)
    # normalized rates are scale-free; the tiny atol floor absorbs float
    # cancellation when adjacent samples are nearly equal
    assert np.allclose(rr_a, rr_b, rtol=1e-9, atol=1e-9)


def test_max_ramp_56_survives_scaling():
    # one 56 %/min minute: dP = 0.56 * rated over 60 s
    s = PowerSeries([1320.0, 3000.0, 3000.0], 60.0, 3000.0)
    rep = ramp_report(s, 60.0, 5.0)
    assert rep.max_abs_rr == pytest.approx(56.0)
    scaled = ramp_report(scale_series(s, 30000.0), 60.0, 5.0)
    assert np.allclose(rep.rr_pct_per_min, scaled.rr_pct_per_min, rtol=1e-9)
    assert not rep.passed and rep.violation_count == 1


@given(
    n_intervals=st.integers(1, 6),
    stride=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=60)
def test_reversal_negates_rates(n_intervals, stride, data):
    # lengths of J*m + 1 samples make the evaluation grids mirror exactly
    n = n_intervals * stride + 1
    values = data.draw(st.lists(st.floats(0.0, 100.0), min_size=n, max_size=n))
    s = PowerSeries(values, 5.0, 100.0)
    s_rev = PowerSeries(list(reversed(values)), 5.0, 100.0)
    rr = ramp_rate_series(s, 5.0 * stride)
    rr_rev = ramp_rate_series(s_rev, 5.0 * stride)
    assert np.array_equal(rr_rev, -rr[::-1])


@given(slope=st.floats(-0.4, 2.0), offset=st.floats(100.0, 500.0))
def test_linear_series_rate_is_interval_independent(slope, offset):
    # %/min is interval-free on a linear ramp: RR = 6000 * slope / rated
    t = np.arange(49) * 5.0
    s = PowerSeries(offset + slope * t, 5.0, 1000.0)
    expected = 6000.0 * slope / 1000.0
    assert np.allclose(ramp_rate_series(s, 60.0), expected, rtol=1e-9, atol=1e-9)
    assert np.allclose(ramp_rate_series(s, 120.0), expected, rtol=1e-9, atol=1e-9)
