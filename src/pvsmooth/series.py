"""Uniformly sampled PV power traces.

A PowerSeries is the common currency of the simulator: ingest produces one,
the synthetic generators produce one, the plant plays one back, and the ramp
metrics consume one. Samples are watts on a fixed grid; the rated power is
the nameplate used to normalize ramp rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import InputError


class SeriesError(InputError):
    """Raised when a power trace violates its construction invariants."""


@dataclass(frozen=True)
class PowerSeries:
    """Immutable PV power trace on a uniform time grid.

    samples are watts, one per grid point, all finite and within
    [0, rated_power_w]. Out-of-range input is rejected here; clamping is an
    explicit ingest option, never applied silently.
    """

    samples: np.ndarray
    sample_period_s: float
    rated_power_w: float
    start_time_s: float = 0.0
    _skip_validation: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.float64).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        if self._skip_validation:
            return
        errors = []
        if arr.ndim != 1 or arr.size == 0:
            errors.append("samples: must be a non-empty 1-D sequence")
        if not (self.sample_period_s > 0 and np.isfinite(self.sample_period_s)):
            errors.append(f"sample_period_s: must be > 0, got {self.sample_period_s}")
        if not (self.rated_power_w > 0 and np.isfinite(self.rated_power_w)):
            errors.append(f"rated_power_w: must be > 0, got {self.rated_power_w}")
        if arr.size and not np.isfinite(arr).all():
            errors.append(f"samples: {np.count_nonzero(~np.isfinite(arr))} non-finite values")
        elif arr.size and errors == []:
            lo, hi = float(arr.min()), float(arr.max())
            if lo < 0.0:
                errors.append(f"samples: minimum {lo} below 0 (use clamp_negative on ingest)")
            if hi > self.rated_power_w:
                errors.append(f"samples: maximum {hi} above rated {self.rated_power_w}")
        if errors:
            raise SeriesError("; ".join(errors))

    def __len__(self) -> int:
        return int(self.samples.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return (
            self.sample_period_s == other.sample_period_s
            and self.rated_power_w == other.rated_power_w
            and self.start_time_s == other.start_time_s
            and np.array_equal(self.samples, other.samples)
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def duration_s(self) -> float:
        """Span from the first sample to one period past the last."""
        return len(self) * self.sample_period_s

    def times_s(self) -> np.ndarray:
        """Absolute timestamp of each sample."""
        return self.start_time_s + np.arange(len(self)) * self.sample_period_s


def scale_series(src: PowerSeries, target_rated_w: float) -> PowerSeries:
    """Rescale a trace to a new nameplate rating.

    Every sample is multiplied by target_rated_w / src.rated_power_w, so the
    per-unit shape (and therefore the normalized ramp behavior) is preserved.
    """
    if not (target_rated_w > 0 and np.isfinite(target_rated_w)):
        raise SeriesError(f"target_rated_w: must be > 0 and finite, got {target_rated_w}")
    factor = target_rated_w / src.rated_power_w
    scaled = src.samples * factor
    if not np.isfinite(scaled).all():
        raise SeriesError("scaling produced non-finite samples")
    # Rounding can push samples a hair past the new rating; snap those back.
    np.minimum(scaled, target_rated_w, out=scaled)
    return PowerSeries(
        samples=scaled,
        sample_period_s=src.sample_period_s,
        rated_power_w=target_rated_w,
        start_time_s=src.start_time_s,
    )
