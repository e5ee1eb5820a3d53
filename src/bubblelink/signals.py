"""Common signal containers shared by the channel, DSP, and I/O layers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class SensorTrace:
    """Uniformly sampled amplitude sequence from the bubble sensor.

    ``t0`` is the start time of the first sampling bin; sample ``n`` represents
    the bin ``[t0 + n*dt, t0 + (n+1)*dt)`` and nominally its center.
    """

    sample_interval: float
    t0: float
    samples: np.ndarray

    def __post_init__(self):
        if not 0 < self.sample_interval < math.inf:
            raise ValidationError("sample_interval must be positive and finite")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1:
            raise ValidationError("samples must be one-dimensional")
        if not np.all(np.isfinite(samples)):
            raise ValidationError("all samples must be finite")
        if not math.isfinite(float(self.t0) + len(samples) * float(self.sample_interval)):
            raise ValidationError("t0 and the end of the last bin must be finite")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return len(self.samples)

    def bin_centers(self) -> np.ndarray:
        """Times of the sample bin centers, in seconds."""
        return self.t0 + (np.arange(len(self.samples)) + 0.5) * self.sample_interval

    def bin_starts(self) -> np.ndarray:
        """Times of the sample bin starts, in seconds."""
        return self.t0 + np.arange(len(self.samples)) * self.sample_interval

    def with_samples(self, samples: np.ndarray) -> "SensorTrace":
        """Same time base, different sample values."""
        return SensorTrace(self.sample_interval, self.t0, samples)


class Peak(NamedTuple):
    time: float
    amplitude: float


@dataclass(frozen=True)
class PeakSet:
    """Detected "high"-signal events, sorted by time."""

    peaks: tuple[Peak, ...]

    def __post_init__(self):
        peaks = tuple(Peak(float(t), float(a)) for t, a in self.peaks)
        for prev, cur in zip(peaks, peaks[1:]):
            if not cur.time > prev.time:
                raise ValidationError("peak times must be strictly ascending")
        object.__setattr__(self, "peaks", peaks)

    def __len__(self) -> int:
        return len(self.peaks)

    def times(self) -> list[float]:
        return [p.time for p in self.peaks]
