"""Detection alignment and reliability metrics (precision/recall/F1, BER/BSR)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    mids = truth.table[:, 0] + truth.table[:, 1] / 2
    detections = detected.table[:, 0]
    # the +-2*tolerance range holds every detection the exact test below accepts
    los = np.searchsorted(detections, mids - 2 * tolerance, side="left").tolist()
    his = np.searchsorted(detections, mids + 2 * tolerance, side="right").tolist()
    truth_times, det_times = mids.tolist(), detections.tolist()
    free = [True] * len(det_times)
    pairs = []
    for tt, lo, hi in zip(truth_times, los, his):
        best = best_dist = None
        for j in range(lo, hi):  # ascending, so the earlier of two equal distances stays
            dist = abs(det_times[j] - tt)
            if free[j] and dist <= tolerance and (best is None or dist < best_dist):
                best, best_dist = j, dist
        if best is not None:
            free[best] = False
            pairs.append((tt, det_times[best]))
    tp = len(pairs)
    return MatchResult(tp, len(det_times) - tp, len(truth_times) - tp, tuple(pairs))


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
