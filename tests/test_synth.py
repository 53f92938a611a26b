import tracemalloc

import numpy as np
import pytest

from conftest import direct_ramp_rates
from pvsmooth.ramp import ramp_rate_series
from pvsmooth.synth import SynthError, synth_pv


def test_clear_profile_shape():
    s = synth_pv("clear", 7200, 5, 3000.0)
    assert len(s) == 1440
    assert s.samples.min() >= 0.0
    assert s.samples.max() <= 3000.0
    # bell peak sits mid-day on this grid
    assert s.samples[720] == 3000.0
    assert s.samples[0] == 0.0


def test_clear_profile_ramps_below_limit():
    s = synth_pv("clear", 7200, 5, 3000.0)
    rr = ramp_rate_series(s, 60.0)
    # independent direct evaluation agrees, and the bell stays well inside
    # the 5 %/min limit (continuous-slope bound is 100*60*pi/7200 = 2.618)
    want = direct_ramp_rates(s.samples, 12, 60.0, 3000.0)
    assert np.array_equal(rr, want)
    assert 2.5 < np.abs(rr).max() < 2.62


def test_cloud_square_edges_carry_depth():
    s = synth_pv("cloud_square", 7200, 5, 3000.0, depth=0.8, cloud_period_s=600.0)
    rr = ramp_rate_series(s, 60.0)
    want = direct_ramp_rates(s.samples, 12, 60.0, 3000.0)
    assert np.array_equal(rr, want)
    # an 80 % drop of the near-rated bell inside one minute reads ~80 %/min;
    # bell drift across the interval shifts it by at most a few percent
    assert 75.0 < np.abs(rr).max() < 85.0
    assert rr.min() < -70.0 and rr.max() > 70.0


def test_cloud_square_duty_cycle():
    s = synth_pv("cloud_square", 1200, 5, 1000.0, depth=0.5, cloud_period_s=600.0)
    # second half of each period is clouded
    bell = synth_pv("clear", 1200, 5, 1000.0)
    assert np.array_equal(s.samples[:60], bell.samples[:60])
    assert np.array_equal(s.samples[60:120], bell.samples[60:120] * 0.5)


def test_cloud_random_deterministic():
    a = synth_pv("cloud_random", 3600, 5, 1000.0, seed=13)
    b = synth_pv("cloud_random", 3600, 5, 1000.0, seed=13)
    c = synth_pv("cloud_random", 3600, 5, 1000.0, seed=14)
    assert a == b
    assert a != c


def test_cloud_random_requires_seed():
    with pytest.raises(SynthError, match="seed"):
        synth_pv("cloud_random", 3600, 5, 1000.0)


def test_cloud_random_bounded():
    s = synth_pv("cloud_random", 7200, 5, 2500.0, seed=0, depth=0.9)
    assert s.samples.min() >= 0.0
    assert s.samples.max() <= 2500.0


def test_duration_must_sit_on_grid():
    with pytest.raises(SynthError, match="multiple"):
        synth_pv("clear", 7201, 5, 1000.0)


def test_unknown_profile():
    with pytest.raises(SynthError, match="unknown profile"):
        synth_pv("foggy", 600, 5, 1000.0)


def test_depth_bounds():
    with pytest.raises(SynthError, match="depth"):
        synth_pv("cloud_square", 600, 5, 1000.0, depth=1.5)


@pytest.mark.parametrize("profile", ["clear", "cloud_square", "cloud_random"])
def test_synth_peak_is_at_most_2_5_times_its_output(profile):
    # the grid becomes the bell, and the clouds scale it, in one buffer;
    # PowerSeries keeps a copy of its own, so 2x is the floor
    synth_pv(profile, 600, 5, 1000.0, seed=1)  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        s = synth_pv(profile, 2 * 86400, 5.0, 3000.0, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * s.samples.nbytes, peak / s.samples.nbytes
