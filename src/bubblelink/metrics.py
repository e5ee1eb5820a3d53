"""Detection alignment and reliability metrics (precision/recall/F1, BER/BSR)."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import UndefinedMetricError, ValidationError
from .modem import InjectionSchedule
from .signals import PeakSet


@dataclass(frozen=True)
class MatchResult:
    tp: int
    fp: int
    fn: int
    pairs: tuple[tuple[float, float], ...]  # (truth_time, detected_time)


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    f1: float
    ber: float
    bsr: float
    peaks_total: int


def match_peaks(detected: PeakSet, truth: InjectionSchedule, tolerance: float) -> MatchResult:
    """Greedily align detections with ground-truth injection midpoints.

    Truth events are visited in ascending time; each is matched to the
    nearest still-unmatched detection within +-tolerance (ties favour the
    earlier detection). Leftover detections count as false positives,
    leftover truths as false negatives.
    """
    if not tolerance > 0:
        raise ValidationError("tolerance must be positive")
    truth_times = [e.start + e.duration / 2 for e in truth.events]
    det_times = detected.times()
    matched = [False] * len(det_times)
    pairs = []
    for tt in truth_times:
        best = None
        best_key = None
        # the +-2*tolerance range holds every detection the exact test below accepts
        lo = bisect_left(det_times, tt - 2 * tolerance)
        hi = bisect_right(det_times, tt + 2 * tolerance)
        for j, dt_ in enumerate(det_times[lo:hi], lo):
            if matched[j]:
                continue
            dist = abs(dt_ - tt)
            if dist > tolerance:
                continue
            key = (dist, dt_)
            if best_key is None or key < best_key:
                best, best_key = j, key
        if best is not None:
            matched[best] = True
            pairs.append((tt, det_times[best]))
    tp = len(pairs)
    return MatchResult(
        tp=tp,
        fp=len(det_times) - tp,
        fn=len(truth_times) - tp,
        pairs=tuple(pairs),
    )


def f1_score(m: MatchResult) -> tuple[float, float, float]:
    """(precision, recall, f1); all zero when there are no true positives."""
    precision = m.tp / (m.tp + m.fp) if m.tp + m.fp > 0 else 0.0
    recall = m.tp / (m.tp + m.fn) if m.tp + m.fn > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return precision, recall, f1


def ber(m: MatchResult, peaks_total: int) -> float:
    """Bit error rate (FP + FN) / Peaks over transmitted "high" signals.

    Unclamped: may exceed 1 when false positives dominate.
    """
    if peaks_total <= 0:
        raise UndefinedMetricError("BER is undefined for peaks_total <= 0")
    return (m.fp + m.fn) / peaks_total


def bsr(ber_value: float) -> float:
    """Bit success rate, the complement 1 - BER."""
    if ber_value < 0:
        raise ValidationError("ber_value must be non-negative")
    return 1.0 - ber_value


def build_report(m: MatchResult, peaks_total: int) -> MetricsReport:
    precision, recall, f1 = f1_score(m)
    b = ber(m, peaks_total)
    return MetricsReport(
        precision=precision,
        recall=recall,
        f1=f1,
        ber=b,
        bsr=bsr(b),
        peaks_total=peaks_total,
    )
