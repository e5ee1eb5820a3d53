import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from helpers import (
    CYCLING_KALMAN,
    PAPER_KALMAN,
    brute_kalman,
    brute_maf,
    kalman_settled_variance,
    kalman_variance_fixed_point,
    oracle_detect,
)
from bubblelink import dsp
from bubblelink.dsp import (
    KalmanParams,
    MafParams,
    PeakDetectParams,
    default_kalman_params,
    default_threshold,
    detect_peaks,
    kalman_filter,
    moving_average,
    peak_candidates,
)
from bubblelink.errors import ValidationError
from bubblelink.signals import SensorTrace


def make_trace(samples, dt=0.04, t0=0.0):
    return SensorTrace(dt, t0, np.asarray(samples, dtype=float))


class TestMovingAverage:
    def test_constant_trace(self):
        trace = make_trace([3.5] * 20)
        out = moving_average(trace, MafParams(7))
        assert np.allclose(out.samples, 3.5)

    def test_hand_example(self):
        out = moving_average(make_trace([1, 2, 3, 4]), MafParams(2))
        assert out.samples == pytest.approx([1.0, 1.5, 2.5, 3.5])

    def test_identity_window(self):
        x = [0.3, 1.2, 0.0, 5.0]
        out = moving_average(make_trace(x), MafParams(1))
        assert np.array_equal(out.samples, np.array(x))

    def test_metadata_preserved(self):
        trace = make_trace([1, 2, 3], dt=0.1, t0=5.0)
        out = moving_average(trace, MafParams(2))
        assert out.sample_interval == 0.1 and out.t0 == 5.0 and len(out) == 3

    def test_matches_brute_force_exactly(self):
        rng = np.random.Generator(np.random.PCG64(21))
        for n in [0, *rng.integers(0, 5000, 19).tolist()]:  # 0: an empty trace
            w = int(rng.integers(1, 100))
            x = rng.random(n) * 10
            out = moving_average(make_trace(x), MafParams(w)).samples
            assert np.array_equal(out, brute_maf(x, w))

    def test_output_bounds(self):
        rng = np.random.Generator(np.random.PCG64(22))
        x = rng.normal(size=500)
        out = moving_average(make_trace(np.abs(x)), MafParams(9)).samples
        assert np.all(out >= np.abs(x).min() - 1e-12)
        assert np.all(out <= np.abs(x).max() + 1e-12)

    def test_rejects_bad_window(self):
        with pytest.raises(ValidationError):
            MafParams(0)


def filtered_and_stepped(trace, params):
    """kalman_filter's output and how many samples its per-sample generator stepped through."""
    with mock.patch.object(dsp, "_kalman_outputs", wraps=dsp._kalman_outputs) as generator:
        out = kalman_filter(trace, params).samples
    return out, sum(len(call.args[0]) for call in generator.call_args_list)


def assert_same_bits(got, expected):
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestKalmanFilter:
    def test_zero_gain_fixed_point(self):
        trace = make_trace([2.0] * 10)
        out = kalman_filter(trace, KalmanParams(q=0.0, r=1.0, x0=2.0, p0=0.0))
        assert np.allclose(out.samples, 2.0)

    def test_hand_recursion(self):
        out = kalman_filter(make_trace([1.0, 1.0]), KalmanParams(q=1.0, r=1.0, x0=0.0, p0=1.0))
        assert out.samples == pytest.approx([2 / 3, 21 / 24], abs=1e-12)

    def test_tiny_r_tracks_input(self):
        rng = np.random.Generator(np.random.PCG64(23))
        x = rng.random(50)
        out = kalman_filter(make_trace(x), KalmanParams(q=1.0, r=1e-12, x0=0.0, p0=1.0))
        assert np.max(np.abs(out.samples[1:] - x[1:])) < 1e-6

    def test_none_tunes_to_the_trace(self):
        rng = np.random.Generator(np.random.PCG64(25))
        trace = make_trace(3.0 + rng.random(3000))  # starts away from 0, so x0 matters
        tuned = kalman_filter(trace, default_kalman_params(trace)).samples
        assert np.array_equal(kalman_filter(trace, None).samples, tuned)

    def test_strided_samples(self):
        x = np.random.Generator(np.random.PCG64(26)).normal(size=400)[::2]
        trace = make_trace(x)
        assert not trace.samples.flags.contiguous  # so the memoryview over it is strided
        q, r, p0 = PAPER_KALMAN
        out = kalman_filter(trace, KalmanParams(q, r, 0.5, p0)).samples
        assert np.array_equal(out, brute_kalman(x, q, r, 0.5, p0))

    @pytest.mark.parametrize("qrp", [PAPER_KALMAN, CYCLING_KALMAN], ids=["settles", "cycles"])
    def test_peak_memory_near_the_output(self, qrp):
        # the output and the trace's n-byte finite mask; a gain array or a list
        # of the outputs would each add about the output's bytes again
        trace = make_trace(np.random.Generator(np.random.PCG64(27)).random(200_000))
        q, r, p0 = qrp
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kalman_filter(trace, KalmanParams(q, r, 0.0, p0))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * trace.samples.nbytes

    @pytest.mark.parametrize("tuning, n", [("paper", 9_200), ("auto", 35_000)])
    def test_block_path_matches_brute(self, tuning, n):
        # about 70 blocks after the gain settles, above the 64-block crossover, then a
        # tail shorter than a block; noise clipped at 0 with sparse unit pulses
        rng = np.random.Generator(np.random.PCG64(28))
        trace = make_trace(np.maximum(0.08 * rng.normal(size=n) + (rng.random(n) < 0.01), 0.0))
        params = KalmanParams(*PAPER_KALMAN[:2], 0.0, PAPER_KALMAN[2])
        if tuning == "auto":
            params = default_kalman_params(trace)
        out, stepped = filtered_and_stepped(trace, params)
        assert_same_bits(out, brute_kalman(trace.samples, params.q, params.r, params.x0, params.p0))
        assert stepped < n / 10  # the rest went through the blocks

    def test_block_path_strided_samples(self):
        x = np.random.Generator(np.random.PCG64(29)).normal(size=18_400)[::2]
        trace = make_trace(x)
        assert not trace.samples.flags.contiguous  # so the (blocks, width) view is strided
        q, r, p0 = PAPER_KALMAN
        out, stepped = filtered_and_stepped(trace, KalmanParams(q, r, 0.5, p0))
        assert_same_bits(out, brute_kalman(x, q, r, 0.5, p0))
        assert stepped < len(x) / 10

    def test_block_path_keeps_signed_zeros(self):
        # from -0.0 each step adds k * -5e-324, which rounds to -0.0, so every output is
        # -0.0; a block warmed up from 0.0 stays at +0.0, which == accepts and the bits refuse
        q, r, _ = PAPER_KALMAN
        p = kalman_settled_variance(*PAPER_KALMAN)  # so k is 0.3 < 0.5 from the first step
        x = np.full(9_200, -5e-324)
        out = kalman_filter(make_trace(x), KalmanParams(q, r, -0.0, p)).samples
        assert_same_bits(out, brute_kalman(x, q, r, -0.0, p))
        assert np.all(np.signbit(out)) and not out.any()

    @pytest.mark.parametrize("short, blocks_run", [(0, True), (1, False)], ids=["64-blocks", "63-blocks"])
    def test_block_path_boundary(self, short, blocks_run):
        # at the paper's tuning the gain settles at k = 0.3 after 54 steps and a block is
        # 129 samples; the generator takes those steps and one block, and the lockstep
        # blocks run only if _MIN_BLOCKS whole blocks follow
        q, r, p0 = PAPER_KALMAN
        assert len(list(dsp._gains(p0, q, r))) == 54
        n = 54 + (1 + dsp._MIN_BLOCKS) * 129 - short
        x = np.random.Generator(np.random.PCG64(31)).normal(size=n)
        out, stepped = filtered_and_stepped(make_trace(x), KalmanParams(q, r, 0.5, p0))
        assert_same_bits(out, brute_kalman(x, q, r, 0.5, p0))
        assert stepped == (54 + 129 if blocks_run else n)

    def test_every_block_falling_back(self):
        # one-sample blocks whose warm-up is one step from 0.0 never match, so the
        # generator recomputes each after its own transient and block
        x = np.random.Generator(np.random.PCG64(30)).normal(size=300)
        q, r, p0 = PAPER_KALMAN
        with mock.patch.object(dsp, "_MIN_BLOCKS", 1), mock.patch.object(dsp, "_WARMUP_BITS", 1e-9):
            out, stepped = filtered_and_stepped(make_trace(x), KalmanParams(q, r, 0.5, p0))
        assert_same_bits(out, brute_kalman(x, q, r, 0.5, p0))
        assert stepped == len(x)

    def test_block_path_overflow_raises_like_the_generator(self):
        # z - x overflows to inf, then inf - inf gives nan: silently in the generator's Python
        # floats, and in the lockstep passes too, so the finite check is what raises
        x = np.tile([1.7e308, -1.7e308], 4_600)
        params = KalmanParams(*PAPER_KALMAN[:2], 0.0, PAPER_KALMAN[2])
        with pytest.raises(ValidationError, match="finite"):
            kalman_filter(make_trace(x), params)
        with mock.patch.object(dsp, "_MIN_BLOCKS", len(x)), pytest.raises(ValidationError, match="finite"):
            kalman_filter(make_trace(x), params)  # the generator alone

    def test_convex_combination(self):
        rng = np.random.Generator(np.random.PCG64(24))
        x = rng.normal(size=300)
        params = KalmanParams(q=0.5, r=2.0, x0=0.0, p0=1.0)
        out = kalman_filter(make_trace(x), params).samples
        prev = params.x0
        for z, y in zip(x, out):
            lo, hi = min(prev, z), max(prev, z)
            assert lo - 1e-12 <= y <= hi + 1e-12
            prev = y

    def test_variance_fixed_point(self):
        for q, r in [(1.0, 1.0), (1e-4, 1e-2), (0.3, 7.0)]:
            p = 5.0
            for _ in range(1000):
                p_pred = p + q
                k = p_pred / (p_pred + r)
                p = (1 - k) * p_pred
                assert p >= 0
            p_star = kalman_variance_fixed_point(q, r)
            assert p == pytest.approx(p_star, abs=1e-9)
            assert p_star == pytest.approx((p_star + q) * r / (p_star + q + r), abs=1e-12)

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            KalmanParams(q=-1.0, r=1.0, x0=0.0, p0=1.0)
        with pytest.raises(ValidationError):
            KalmanParams(q=1.0, r=0.0, x0=0.0, p0=1.0)
        for field in ("q", "r", "x0", "p0"):
            for bad in (math.nan, math.inf, -math.inf):
                values = {"q": 1.0, "r": 1.0, "x0": 0.0, "p0": 1.0, field: bad}
                with pytest.raises(ValidationError, match=f"^{field} must be finite"):
                    KalmanParams(**values)


class TestDetectPeaks:
    def test_all_zero_trace(self):
        peaks = detect_peaks(make_trace([0.0] * 10), PeakDetectParams(1.0, 1))
        assert len(peaks) == 0

    def test_two_separated_maxima(self):
        peaks = detect_peaks(make_trace([0, 5, 0, 0, 6, 0]), PeakDetectParams(3.0, 1))
        times = peaks.table[:, 0].tolist()
        assert times == pytest.approx([(1 + 0.5) * 0.04, (4 + 0.5) * 0.04])
        shifted = make_trace([0, 5, 0, 0, 6, 0], t0=1234.5678)
        peaks = detect_peaks(shifted, PeakDetectParams(3.0, 1))
        assert peaks.table[:, 0].tolist() == shifted.bin_centers()[[1, 4]].tolist()

    def test_greedy_amplitude_suppression(self):
        peaks = detect_peaks(make_trace([0, 5, 4, 6, 0]), PeakDetectParams(3.0, 3))
        assert len(peaks) == 1
        assert peaks.peaks[0].time == pytest.approx((3 + 0.5) * 0.04)
        assert peaks.peaks[0].amplitude == pytest.approx(6.0)

    def test_plateau_first_index(self):
        assert peak_candidates(np.array([0.0, 2.0, 2.0, 2.0, 0.0]), 1.0) == [1]
        assert peak_candidates(np.array([2.0, 2.0, 0.0]), 1.0) == [0]
        assert peak_candidates(np.array([0.0, 2.0, 2.0]), 1.0) == [1]

    def test_properties_random(self):
        rng = np.random.Generator(np.random.PCG64(31))
        for _ in range(100):
            n = int(rng.integers(5, 200))
            x = rng.integers(0, 8, n).astype(float)
            params = PeakDetectParams(
                threshold=float(rng.integers(1, 6)),
                min_distance=int(rng.integers(1, 10)),
            )
            trace = make_trace(x)
            peaks = detect_peaks(trace, params)
            idx = [round(p.time / 0.04 - 0.5) for p in peaks.peaks]
            assert all(p.amplitude >= params.threshold for p in peaks.peaks)
            for i, a in enumerate(idx):
                for b in idx[i + 1 :]:
                    assert abs(a - b) >= params.min_distance
            # invariant under appending trailing sub-threshold zeros
            padded = make_trace(np.concatenate([x, np.zeros(7)]))
            assert detect_peaks(padded, params).table[:, 0].tolist() == peaks.table[:, 0].tolist()

    def test_matches_exhaustive_oracle(self):
        rng = np.random.Generator(np.random.PCG64(32))
        checked = 0
        while checked < 60:
            n = int(rng.integers(3, 31))
            x = rng.integers(0, 6, n).astype(float)
            threshold = float(rng.integers(1, 5))
            min_distance = int(rng.integers(1, 8))
            if len(peak_candidates(x, threshold)) > 14:
                continue
            got = detect_peaks(make_trace(x), PeakDetectParams(threshold, min_distance))
            got_idx = [round(p.time / 0.04 - 0.5) for p in got.peaks]
            assert got_idx == oracle_detect(x, threshold, min_distance)
            checked += 1

    def test_default_threshold_heuristic(self):
        x = np.zeros(100)
        x[50] = 2.0
        trace = make_trace(x)
        assert default_threshold(trace) == pytest.approx(0.5 * np.percentile(x, 95))

    def test_rejects_bad_min_distance(self):
        with pytest.raises(ValidationError):
            PeakDetectParams(1.0, 0)
