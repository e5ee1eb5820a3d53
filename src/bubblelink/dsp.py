"""Trace smoothing (moving average, scalar Kalman) and peak detection."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from .errors import ValidationError
from .signals import PeakSet, SensorTrace


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


def _gains(p: float, q: float, r: float) -> Iterator[float]:
    """The gain of each step from variance p.

    The gain does not depend on the samples. It stops after the first step at
    which the variance repeats, a float fixed point: from there on the variance,
    and so the gain, stays the same.
    """
    while True:
        p_pred = p + q
        k = p_pred / (p_pred + r)
        yield k
        p, p_prev = (1.0 - k) * p_pred, p
        if p == p_prev:
            return


def _kalman_outputs(samples: np.ndarray, x: float, gains: Iterable[float]) -> Iterator[float]:
    """The filtered value of each sample from state x, read one at a time as a Python float.

    Each sample takes its own gain from ``gains`` until they run out; the
    second loop applies the last of them to the remaining samples.
    """
    zs = iter(memoryview(samples))
    for k, z in zip(gains, zs):  # the gains first, so none of zs is lost when they stop
        x = x + k * (z - x)
        yield x
    for z in zs:
        x = x + k * (z - x)
        yield x


# the lockstep blocks pay per step, not per sample: below this many blocks the generator
# is faster (crossover measured at the preset's and at default_kalman_params' gains)
_MIN_BLOCKS = 64
# a block's warm-up shrinks the error of its guessed start by (1 - k) a step; it runs
# until that factor is 2**-66, 1.25 times the 53 bits of a float's significand
_WARMUP_BITS = 1.25 * 53


def _block_plan(params: KalmanParams, n: int) -> tuple[int, float, int] | None:
    """(s, k, width) of the lockstep blocks for an n-sample trace, or None.

    ``_gains`` settles at gain k after s steps. None if k is not in (0, 1),
    if fewer than ``_MIN_BLOCKS`` blocks of ``width`` samples follow, or if
    the gain has not settled after n / ``_MIN_BLOCKS`` steps: so a variance
    that cycles or settles slowly costs little here before the generator
    takes the trace.
    """
    limit = n // _MIN_BLOCKS
    gains = list(islice(_gains(params.p0, params.q, params.r), limit + 1))
    s, k = len(gains), gains[-1]
    if s > limit or not 0.0 < k < 1.0:
        return None
    # capped at n, since a tiny k gives inf; a width of n leaves no block after s
    width = math.ceil(min(_WARMUP_BITS * math.log(2.0) / -math.log1p(-k), n))
    return (s, k, width) if (n - s) // width >= _MIN_BLOCKS else None


def kalman_filter(trace: SensorTrace, params: KalmanParams | None) -> SensorTrace:
    """Scalar random-walk Kalman smoother, the same floats as one step per sample.

    With ``params`` None it is tuned to the trace by ``default_kalman_params``.
    Once the gain settles to k, long traces are cut into blocks of ``width``
    samples advanced together, one step of every block per three ufunc calls.
    Block 0 starts from the exact state. Each later block starts from 0.0 warmed
    up over the previous block's samples, and is kept only if that start equals
    the previous block's last output bit for bit; otherwise the generator
    recomputes it from that output. Either way every output is the same
    ``x + k * (z - x)`` of the same floats as in ``_kalman_outputs``.
    """
    if params is None:
        params = default_kalman_params(trace)
    z, n = trace.samples, len(trace)
    gains = _gains(params.p0, params.q, params.r)

    def run(lo: int, hi: int, x: float, ks: Iterable[float]) -> np.ndarray:
        return np.fromiter(_kalman_outputs(z[lo:hi], x, ks), float, hi - lo)

    plan = _block_plan(params, n)
    if plan is None:
        return trace.with_samples(run(0, n, params.x0, gains))
    s, k, width = plan
    end = n - (n - s) % width
    out = np.empty(n)
    out[:s] = run(0, s, params.x0, gains)
    zb = z[s:end].reshape(-1, width)
    ob = out[s:end].reshape(-1, width)  # a view: the steps write the output in place
    start = np.zeros(len(zb))
    start[0] = out[s - 1]
    step = np.empty(len(zb))
    warm, warm_step = start[1:], step[1:]
    # overflow and inf - inf give inf and nan silently, as in the generator's Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        for zc in zb[:-1].T:  # the warm-up of blocks 1.. over the samples of blocks ..-1
            np.subtract(zc, warm, out=warm_step)
            np.multiply(k, warm_step, out=warm_step)
            np.add(warm, warm_step, out=warm)
        x = start
        for zc, oc in zip(zb.T, ob.T):
            np.subtract(zc, x, out=step)
            np.multiply(k, step, out=step)
            x = np.add(x, step, out=oc)
    # block j + 1 is exact if block j is and warm[j] is block j's last output; int64
    # views compare the bits, since 0.0 == -0.0, and see blocks that the generator mends
    warm_bits, end_bits = warm.view(np.int64), ob[:-1, -1].view(np.int64)
    j = 0
    for bad in np.flatnonzero(warm_bits != end_bits):
        j = max(j, int(bad))  # blocks up to j are exact
        while j < len(warm) and warm_bits[j] != end_bits[j]:
            ob[j + 1] = run(s + (j + 1) * width, s + (j + 2) * width, float(ob[j, -1]), (k,))
            j += 1
    out[end:] = run(end, n, float(out[end - 1]), (k,))
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
    keep = np.array(accepted, dtype=np.intp)
    return PeakSet(np.stack([trace.bin_centers(keep), x[keep]], axis=1))
