"""Trace smoothing (moving average, scalar Kalman) and peak detection."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .signals import PeakSet, SensorTrace

KALMAN_BLOCK = 1024  # samples per tolist(); a whole-trace list raised peak memory


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
    y = np.empty(n, dtype=float)
    head = min(w - 1, n)
    for i in range(head):
        y[i] = x[: i + 1].mean()
    if n >= w:
        windows = np.lib.stride_tricks.sliding_window_view(x, w)
        y[w - 1 :] = windows.mean(axis=1)
    return trace.with_samples(y)


def _kalman_gains(params: KalmanParams, n: int) -> np.ndarray:
    """The first m <= n gains of the filter; if m < n, every later gain equals the last.

    The gain does not depend on the samples. It is computed until the variance
    p reaches a float fixed point, after which p, and so the gain, stays the same.
    """
    gains = np.empty(n)
    p = params.p0
    for i in range(n):
        p_pred = p + params.q
        k = p_pred / (p_pred + params.r)
        gains[i] = k
        p, p_prev = (1.0 - k) * p_pred, p
        if p == p_prev:
            return gains[: i + 1]
    return gains


def kalman_filter(trace: SensorTrace, params: KalmanParams | None) -> SensorTrace:
    """Scalar random-walk Kalman smoother applied sample by sample.

    With ``params`` None it is tuned to the trace by ``default_kalman_params``.
    Samples are converted to Python floats ``KALMAN_BLOCK`` at a time. Each
    takes its own gain until the gain settles, then the settled one.
    """
    if params is None:
        params = default_kalman_params(trace)
    gains = _kalman_gains(params, len(trace))
    x = params.x0
    out = np.empty(len(trace), dtype=float)
    for a in range(0, len(trace), KALMAN_BLOCK):
        zs = trace.samples[a : a + KALMAN_BLOCK].tolist()
        ks = gains[a : a + KALMAN_BLOCK].tolist()
        ys = [x := x + k * (z - x) for z, k in zip(zs, ks)]
        settled = gains[-1].item()
        ys += [x := x + settled * (z - x) for z in zs[len(ks) :]]
        out[a : a + len(ys)] = ys
    return trace.with_samples(out)


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
    candidates = np.array(peak_candidates(x, params.threshold), dtype=np.intp)
    order = candidates[np.lexsort((candidates, -x[candidates]))].tolist()
    accepted: list[int] = []  # kept sorted, so only the two neighbours of i can be too close
    for i in order:
        k = bisect_left(accepted, i)
        if (k == 0 or i - accepted[k - 1] >= params.min_distance) and (
            k == len(accepted) or accepted[k] - i >= params.min_distance
        ):
            accepted.insert(k, i)
    return PeakSet(tuple(zip(trace.bin_centers()[accepted].tolist(), x[accepted].tolist())))
