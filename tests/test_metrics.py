import numpy as np
import pytest

from helpers import oracle_max_matching, peaks_at
from bubblelink.errors import UndefinedMetricError, ValidationError
from bubblelink.metrics import MatchResult, ber, bsr, build_report, f1_score, match_peaks
from bubblelink.modem import InjectionEvent, InjectionSchedule
from bubblelink.signals import PeakSet


def schedule_from_midtimes(midtimes, duration=0.2, dose=1.0):
    events = tuple(InjectionEvent(t - duration / 2, duration, dose) for t in midtimes)
    return InjectionSchedule(events, midtimes[-1] + duration if midtimes else 0.0)


class TestMatchPeaks:
    def test_perfect_detection(self):
        truth = schedule_from_midtimes([1.0, 5.0, 9.0])
        detected = peaks_at([1.0, 5.0, 9.0])
        m = match_peaks(detected, truth, 0.5)
        assert (m.tp, m.fp, m.fn) == (3, 0, 0)

    def test_spurious_detection_outside_windows(self):
        truth = schedule_from_midtimes([1.0, 5.0])
        detected = peaks_at([1.1, 3.0, 5.05])
        m = match_peaks(detected, truth, 0.5)
        assert (m.tp, m.fp, m.fn) == (2, 1, 0)

    def test_missed_truth(self):
        truth = schedule_from_midtimes([1.0])
        m = match_peaks(PeakSet(()), truth, 0.5)
        assert (m.tp, m.fp, m.fn) == (0, 0, 1)

    def test_tie_prefers_earlier_detection(self):
        truth = schedule_from_midtimes([5.0])
        detected = peaks_at([4.8, 5.2])
        m = match_peaks(detected, truth, 0.5)
        assert m.pairs == ((5.0, 4.8),)

    def test_detection_exactly_at_tolerance_matches(self):
        # truth 0.1 + 0.2 + 0.3/2 and tolerance 0.1 + 0.2: the detection at
        # 0.15 is within tolerance, yet below the float truth - tolerance
        below = InjectionSchedule((InjectionEvent(0.1 + 0.2, 0.3, 1.0),), 2.3)
        assert match_peaks(peaks_at([0.15]), below, 0.1 + 0.2).tp == 1
        # truth 0.7 + 0.2/2 = 0.7999999999999999 and tolerance 1.0: the
        # detection at 1.8 lies above the float truth + tolerance
        above = InjectionSchedule((InjectionEvent(0.7, 0.2, 1.0),), 2.3)
        assert match_peaks(peaks_at([1.8]), above, 1.0).tp == 1

    def test_pairs_within_tolerance(self):
        truth = schedule_from_midtimes([1.0, 4.0, 8.0])
        detected = peaks_at([0.7, 4.4, 9.5])
        m = match_peaks(detected, truth, 0.5)
        for tt, dt in m.pairs:
            assert abs(tt - dt) <= 0.5

    def test_conservation_random(self):
        rng = np.random.Generator(np.random.PCG64(41))
        for _ in range(50):
            raw = np.sort(rng.uniform(0, 100, int(rng.integers(0, 12))))
            truths = []
            for t in raw:  # keep events far enough apart not to overlap
                if not truths or t - truths[-1] > 0.5:
                    truths.append(float(t))
            dets = sorted(set(float(t) for t in rng.uniform(0, 100, int(rng.integers(0, 12)))))
            truth = schedule_from_midtimes(truths) if truths else InjectionSchedule((), 0.0)
            m = match_peaks(peaks_at(dets), truth, 1.0)
            assert m.tp + m.fn == len(truths)
            assert m.tp + m.fp == len(dets)
            assert m.tp == len(m.pairs)

    def test_greedy_optimal_when_truths_well_separated(self):
        rng = np.random.Generator(np.random.PCG64(42))
        tolerance = 1.0
        for _ in range(100):
            n_truth = int(rng.integers(1, 9))
            # consecutive truths at least 2*tolerance apart
            gaps = rng.uniform(2 * tolerance, 4 * tolerance, n_truth)
            truths = list(np.cumsum(gaps) + 1.0)
            dets = sorted(set(float(d) for d in rng.uniform(0, truths[-1] + 2, int(rng.integers(0, 10)))))
            m = match_peaks(peaks_at(dets), schedule_from_midtimes(truths), tolerance)
            assert m.tp == oracle_max_matching(truths, dets, tolerance)

    def test_monotonicity(self):
        truth = schedule_from_midtimes([1.0, 5.0])
        base = match_peaks(peaks_at([1.0, 5.0]), truth, 0.5)
        more = match_peaks(peaks_at([1.0, 3.0, 5.0]), truth, 0.5)
        assert more.fp >= base.fp
        fewer = match_peaks(peaks_at([1.0]), truth, 0.5)
        assert fewer.fn >= base.fn

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValidationError):
            match_peaks(PeakSet(()), InjectionSchedule((), 0.0), 0.0)


class TestScores:
    def test_f1_direct_formula(self):
        m = MatchResult(tp=8, fp=1, fn=1, pairs=())
        precision, recall, f1 = f1_score(m)
        assert precision == pytest.approx(8 / 9)
        assert recall == pytest.approx(8 / 9)
        assert f1 == pytest.approx(8 / 9, abs=1e-12)

    def test_f1_empty_run(self):
        assert f1_score(MatchResult(0, 0, 0, ())) == (0.0, 0.0, 0.0)

    def test_f1_perfect(self):
        assert f1_score(MatchResult(5, 0, 0, ())) == (1.0, 1.0, 1.0)

    def test_f1_bounds_and_perfection_iff(self):
        rng = np.random.Generator(np.random.PCG64(43))
        for _ in range(200):
            tp, fp, fn = (int(v) for v in rng.integers(0, 10, 3))
            _, _, f1 = f1_score(MatchResult(tp, fp, fn, ()))
            assert 0.0 <= f1 <= 1.0
            assert (f1 == 1.0) == (fp == 0 and fn == 0 and tp > 0)

    def test_ber_error_free(self):
        assert ber(MatchResult(10, 0, 0, ()), 10) == 0.0

    def test_ber_derived(self):
        assert ber(MatchResult(8, 1, 2, ()), 10) == pytest.approx(0.3)

    def test_ber_may_exceed_one(self):
        assert ber(MatchResult(2, 20, 1, ()), 10) == pytest.approx(2.1)

    def test_ber_undefined_for_zero_peaks(self):
        with pytest.raises(UndefinedMetricError):
            ber(MatchResult(0, 0, 0, ()), 0)

    def test_bsr_paper_table_rows(self):
        assert bsr(0.1179) == pytest.approx(0.8821, abs=1e-4)
        assert bsr(0.1393) == pytest.approx(0.8607, abs=1e-4)
        assert bsr(0.7679) == pytest.approx(0.2321, abs=1e-4)
        assert bsr(0.0) == 1.0

    def test_ber_bsr_identity_exact(self):
        rng = np.random.Generator(np.random.PCG64(44))
        for _ in range(100):
            fp, fn = (int(v) for v in rng.integers(0, 30, 2))
            total = int(rng.integers(1, 40))
            b = ber(MatchResult(0, fp, fn, ()), total)
            assert b + bsr(b) == 1.0

    def test_build_report(self):
        r = build_report(MatchResult(8, 1, 2, ()), 10)
        assert r.ber == pytest.approx(0.3)
        assert r.ber + r.bsr == 1.0
        assert r.peaks_total == 10
        assert r.f1 == pytest.approx(2 * (8 / 9) * 0.8 / (8 / 9 + 0.8))
