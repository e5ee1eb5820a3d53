"""Common signal containers shared by the channel, DSP, and I/O layers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Sequence

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

    def bin_centers(self, index: np.ndarray | None = None) -> np.ndarray:
        """Times of the sample bin centers, in seconds; with ``index``, of those samples only."""
        n = np.arange(len(self.samples)) if index is None else index
        return self.t0 + (n + 0.5) * self.sample_interval

    def bin_starts(self) -> np.ndarray:
        """Times of the sample bin starts, in seconds."""
        return self.t0 + np.arange(len(self.samples)) * self.sample_interval

    def with_samples(self, samples: np.ndarray) -> "SensorTrace":
        """Same time base, different sample values."""
        return SensorTrace(self.sample_interval, self.t0, samples)


def float_table(rows: Sequence, columns: int) -> np.ndarray:
    """``rows``, a sequence of ``columns``-tuples or an array, as a new read-only
    (rows, columns) float array; a row of another width raises ValueError."""
    table = np.array(rows, dtype=float).reshape(len(rows), columns)
    table.setflags(write=False)
    return table


def named_rows(cls: type, table: np.ndarray) -> tuple:
    """The rows of ``table`` as ``cls`` named tuples of floats. tuple.__new__
    makes each in C, where ``cls(*row)`` would run Python code per row."""
    return tuple(map(tuple.__new__, repeat(cls), zip(*table.T.tolist())))


class Peak(NamedTuple):
    time: float
    amplitude: float


@dataclass(frozen=True, eq=False)
class PeakSet:
    """Detected "high"-signal events, sorted by time.

    ``table`` may be given as (time, amplitude) pairs or as an (n, 2) array and is
    kept as read-only (n, 2) floats; ``peaks`` builds its rows as Peak on each access.
    """

    table: np.ndarray
    peaks = property(lambda self: named_rows(Peak, self.table))

    def __post_init__(self):
        table = float_table(self.table, 2)
        if not np.isfinite(table).all():
            raise ValidationError("peak times and amplitudes must be finite")
        if not (table[1:, 0] > table[:-1, 0]).all():
            raise ValidationError("peak times must be strictly ascending")
        object.__setattr__(self, "table", table)

    def __len__(self) -> int:
        return len(self.table)
