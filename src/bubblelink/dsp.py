"""Trace smoothing (moving average, scalar Kalman) and peak detection."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .signals import Peak, PeakSet, SensorTrace


@dataclass(frozen=True)
class MafParams:
    window: int

    def __post_init__(self):
        if self.window < 1:
            raise ValidationError("MAF window must be at least 1 sample")


@dataclass(frozen=True)
class KalmanParams:
    """Scalar random-walk smoother: x_k = x_{k-1} + w (var q), z_k = x_k + v (var r)."""

    q: float
    r: float
    x0: float
    p0: float

    def __post_init__(self):
        for name in ("q", "r", "x0", "p0"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.q < 0 or self.p0 < 0:
            raise ValidationError("q and p0 must be non-negative")
        if not self.r > 0:
            raise ValidationError("r must be positive")


@dataclass(frozen=True)
class PeakDetectParams:
    threshold: float
    min_distance: int

    def __post_init__(self):
        if not math.isfinite(self.threshold):
            raise ValidationError("threshold must be finite")
        if self.min_distance < 1:
            raise ValidationError("min_distance must be at least 1 sample")


def default_maf_window(sample_interval: float, injection_duration: float = 0.3) -> int:
    """Window matching the injection duration (heuristic default)."""
    return max(1, round(injection_duration / sample_interval))


def default_min_distance(sample_interval: float, separation: float = 1.0) -> int:
    """Minimum peak separation of ~1 s in samples (heuristic default)."""
    return max(1, round(separation / sample_interval))


def default_threshold(trace: SensorTrace) -> float:
    """Heuristic detection threshold: half the 95th amplitude percentile."""
    if len(trace) == 0:
        return 0.0
    return 0.5 * float(np.percentile(trace.samples, 95))


def default_kalman_params(trace: SensorTrace) -> KalmanParams:
    """Heuristic tuning scaled to the trace's dynamic range."""
    scale = float(trace.samples.max()) if len(trace) else 1.0
    if scale <= 0:
        scale = 1.0
    r = 1e-2 * scale**2
    x0 = float(trace.samples[0]) if len(trace) else 0.0
    return KalmanParams(q=1e-4 * scale**2, r=r, x0=x0, p0=r)


def moving_average(trace: SensorTrace, params: MafParams) -> SensorTrace:
    """Causal trailing mean; the window shrinks at the start of the trace."""
    x = trace.samples
    w = params.window
    n = len(x)
    if n == 0 or w == 1:
        return trace.with_samples(x.copy())
    y = np.empty(n, dtype=float)
    head = min(w - 1, n)
    for i in range(head):
        y[i] = x[: i + 1].mean()
    if n >= w:
        windows = np.lib.stride_tricks.sliding_window_view(x, w)
        y[w - 1 :] = windows.mean(axis=1)
    return trace.with_samples(y)


def kalman_filter(trace: SensorTrace, params: KalmanParams) -> SensorTrace:
    """Scalar random-walk Kalman smoother applied sample by sample."""
    x = params.x0
    p = params.p0
    out = np.empty(len(trace), dtype=float)
    for i, z in enumerate(trace.samples):
        p_pred = p + params.q
        k = p_pred / (p_pred + params.r)
        x = x + k * (z - x)
        p = (1.0 - k) * p_pred
        out[i] = x
    return trace.with_samples(out)


def kalman_variance_fixed_point(q: float, r: float) -> float:
    """Steady-state posterior variance p* with p* = (p*+q) r / (p*+q+r)."""
    # positive root of p^2 + q p - q r = 0
    return (-q + np.sqrt(q * q + 4.0 * q * r)) / 2.0


def peak_candidates(samples: np.ndarray, threshold: float) -> list[int]:
    """Local maxima at or above threshold; plateaus yield their first index."""
    x = np.asarray(samples)
    if len(x) == 0:
        return []
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))  # run starts
    values = x[starts]
    keep = values >= threshold
    keep[1:] &= values[:-1] < values[1:]  # above the previous run
    keep[:-1] &= values[1:] < values[:-1]  # above the next run
    return starts[keep].tolist()


def detect_peaks(trace: SensorTrace, params: PeakDetectParams) -> PeakSet:
    """Threshold + minimum-distance peak picking.

    Candidates are accepted greedily in descending amplitude (ties broken by
    earlier time); a candidate closer than ``min_distance`` samples to an
    already accepted peak is rejected.
    """
    x = trace.samples
    candidates = peak_candidates(x, params.threshold)
    order = sorted(candidates, key=lambda i: (-x[i], i))
    accepted: list[int] = []  # kept sorted, so only the two neighbours of i can be too close
    for i in order:
        k = bisect_left(accepted, i)
        if (k == 0 or i - accepted[k - 1] >= params.min_distance) and (
            k == len(accepted) or accepted[k] - i >= params.min_distance
        ):
            accepted.insert(k, i)
    dt = trace.sample_interval
    peaks = tuple(Peak(trace.t0 + (i + 0.5) * dt, float(x[i])) for i in accepted)
    return PeakSet(peaks)
