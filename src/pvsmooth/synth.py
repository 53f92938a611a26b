"""Synthetic PV profiles for tests and desk-scale experiments.

Three generators, all bounded to [0, rated]:

  clear        a smooth bell (sin^2) from sunrise to sunset
  cloud_square the bell chopped by periodic step drops of fixed depth
  cloud_random the bell modulated by a seeded random telegraph process
               (exponentially distributed dwell in sun/cloud states)
"""

from __future__ import annotations

import numpy as np

from .config import InputError
from .series import PowerSeries


class SynthError(InputError):
    """A profile that cannot be generated as asked."""


def _grid(duration_s: float, sample_period_s: float) -> np.ndarray:
    if not sample_period_s > 0:
        raise SynthError(f"sample_period_s must be > 0, got {sample_period_s}")
    ratio = duration_s / sample_period_s
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-9:
        raise SynthError(
            f"duration_s {duration_s} must be a positive multiple of sample_period_s {sample_period_s}"
        )
    return np.arange(n, dtype=np.float64) * sample_period_s


def synth_pv(
    profile: str,
    duration_s: float,
    sample_period_s: float,
    rated_w: float,
    *,
    seed: int | None = None,
    depth: float = 0.8,
    cloud_period_s: float = 600.0,
    mean_dwell_s: float = 240.0,
    start_time_s: float = 0.0,
) -> PowerSeries:
    """Generate a synthetic PV trace.

    depth is the fractional power drop while clouded; cloud_period_s sets the
    square modulation period (drop during the second half of each period);
    mean_dwell_s is the expected telegraph dwell time in each state.
    cloud_random requires a seed and is fully reproducible from it.
    """
    if not rated_w > 0:
        raise SynthError(f"rated_w must be > 0, got {rated_w}")
    if not 0.0 <= depth <= 1.0:
        raise SynthError(f"depth must be in [0, 1], got {depth}")
    samples = _grid(duration_s, sample_period_s)  # the time grid, then the bell in its place
    if profile == "clear":
        clouded = None
    elif profile == "cloud_square":
        if not cloud_period_s > 0:
            raise SynthError(f"cloud_period_s must be > 0, got {cloud_period_s}")
        clouded = np.mod(samples, cloud_period_s) >= cloud_period_s / 2.0
    elif profile == "cloud_random":
        if seed is None:
            raise SynthError("cloud_random requires a seed")
        rng = np.random.default_rng(seed)
        flip_p = sample_period_s / mean_dwell_s
        if not 0.0 < flip_p <= 1.0:
            raise SynthError(f"mean_dwell_s {mean_dwell_s} too short for period {sample_period_s}")
        toggles = rng.random(len(samples)) < flip_p
        toggles[0] = False  # always start in full sun
        clouded = np.logical_xor.accumulate(toggles, out=toggles)
    else:
        raise SynthError(f"unknown profile {profile!r} (expected clear, cloud_square, cloud_random)")
    # the bell, rated_w * sin(pi * t / duration_s)**2, in the grid's buffer
    samples *= np.pi
    samples /= duration_s
    np.sin(samples, out=samples)
    np.square(samples, out=samples)
    samples *= rated_w
    if clouded is not None:
        np.multiply(samples, 1.0 - depth, out=samples, where=clouded)

    return PowerSeries(
        samples=samples,
        sample_period_s=sample_period_s,
        rated_power_w=rated_w,
        start_time_s=start_time_s,
    )
