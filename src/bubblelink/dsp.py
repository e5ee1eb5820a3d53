"""Trace smoothing (moving average, scalar Kalman) and peak detection."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, islice
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
    try:
        variance = scale**2
    except OverflowError:
        raise ValidationError(f"the trace's maximum of {scale:g} is too large to tune the Kalman "
                              "filter from; set 'kalman.q' and 'kalman.r'") from None
    r = 1e-2 * variance
    x0 = float(trace.samples[0]) if len(trace) else 0.0
    return KalmanParams(q=1e-4 * variance, r=r, x0=x0, p0=r)


def moving_average(trace: SensorTrace, params: MafParams) -> SensorTrace:
    """Causal trailing mean; the window shrinks at the start of the trace."""
    x = trace.samples
    w = params.window
    n = len(x)
    y = np.empty(n, dtype=float)
    head = min(w - 1, n)
    # overflow gives inf, and inf - inf nan, silently: SensorTrace's finite check refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(head):
            y[i] = x[: i + 1].mean()
        if n >= w:
            windows = np.lib.stride_tricks.sliding_window_view(x, w)
            y[w - 1 :] = windows.mean(axis=1)
    try:
        return trace.with_samples(y)
    except ValidationError:
        raise ValidationError("the moving average overflows the float range; lower the trace's "
                              "samples, which a run sets by 'dose', 'channel.noise_std' and "
                              "'channel.spike_amplitude_max'") from None


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


def kalman_filter(trace: SensorTrace, params: KalmanParams | None) -> SensorTrace:
    """Scalar random-walk Kalman smoother, the same floats as one step per sample.

    With ``params`` None it is tuned to the trace by ``default_kalman_params``.
    The generator takes the trace alone unless the gain settles to some k in
    (0, 1) within n / ``_MIN_BLOCKS`` steps and ``_MIN_BLOCKS`` blocks of
    ``width`` samples follow the transient and one more block. Then it stops
    after that block, and the later blocks advance together, one step of every
    block per three ufunc calls. Each starts from 0.0 warmed up over the
    previous block's samples, and is kept only if that start equals the
    previous block's last output bit for bit; otherwise the generator
    recomputes it from that output. Either way every output is the same
    ``x + k * (z - x)`` of the same floats as in ``_kalman_outputs``.
    """
    if params is None:
        params = default_kalman_params(trace)
    z, n = trace.samples, len(trace)
    gains = _gains(params.p0, params.q, params.r)
    ks = list(islice(gains, n // _MIN_BLOCKS + 1))  # more gains than this: not settled
    s, k = len(ks), ks[-1]

    def run(lo: int, hi: int, x: float, gain_seq: Iterable[float]) -> np.ndarray:
        return np.fromiter(_kalman_outputs(z[lo:hi], x, gain_seq), float, hi - lo)

    blocks = 0
    if s <= n // _MIN_BLOCKS and 0.0 < k < 1.0:
        # capped at n, since a tiny k gives inf; a width of n leaves no block after s
        width = math.ceil(min(_WARMUP_BITS * math.log(2.0) / -math.log1p(-k), n))
        blocks = (n - s) // width  # the first of them is the generator's
    if blocks <= _MIN_BLOCKS:
        return trace.with_samples(run(0, n, params.x0, chain(ks, gains)))
    end = s + blocks * width
    out = np.empty(n)
    out[: s + width] = run(0, s + width, params.x0, ks)
    zb = z[s:end].reshape(-1, width)
    ob = out[s:end].reshape(-1, width)  # a view: the steps write the output in place
    warm, step = np.zeros(blocks - 1), np.empty(blocks - 1)
    # overflow and inf - inf give inf and nan silently, as in the generator's Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        for zc in zb[:-1].T:  # block j + 1 warms up over the samples of block j
            np.subtract(zc, warm, out=step)
            np.multiply(k, step, out=step)
            np.add(warm, step, out=warm)
        x = warm
        for zc, oc in zip(zb[1:].T, ob[1:].T):
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
