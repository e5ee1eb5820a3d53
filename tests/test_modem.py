import numpy as np
import pytest

from helpers import peaks_at
from bubblelink.errors import ValidationError
from bubblelink.modem import (
    TimingParams,
    decode,
    duty_efficiency,
    effective_bit_rate,
    encode,
    max_channel_bit_rate,
    raw_bit_rate,
    time_overhead,
    uniform_avg_bit_duration,
)
from bubblelink.signals import PeakSet

PAPER_TIMING = TimingParams(t_on=0.3, t_off=2.0)


class TestTimingParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            TimingParams(t_on=0.0, t_off=2.0)
        with pytest.raises(ValidationError):
            TimingParams(t_on=0.3, t_off=-1.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="t_on must be finite"):
                TimingParams(t_on=bad, t_off=2.0)
            with pytest.raises(ValidationError, match="t_off must be finite"):
                TimingParams(t_on=0.3, t_off=bad)
        with pytest.raises(ValidationError, match="symbol_duration must be finite"):
            TimingParams(t_on=1e308, t_off=1e308)  # each finite, the sum overflows

    def test_rejects_off_shorter_than_on(self):
        with pytest.raises(ValidationError):
            TimingParams(t_on=2.0, t_off=0.3)

    def test_symbol_duration(self):
        assert PAPER_TIMING.symbol_duration == pytest.approx(2.3)


class TestRates:
    def test_raw_bit_rate_paper(self):
        assert raw_bit_rate(PAPER_TIMING) == pytest.approx(0.434783, abs=1e-6)

    def test_raw_bit_rate_unit(self):
        assert raw_bit_rate(TimingParams(0.5, 0.5)) == pytest.approx(1.0)

    def test_raw_bit_rate_exact_division(self):
        assert raw_bit_rate(PAPER_TIMING) == pytest.approx(1 / 2.3, abs=1e-12)

    def test_time_overhead_paper(self):
        assert time_overhead(PAPER_TIMING) == pytest.approx(0.869565, abs=1e-6)

    def test_time_overhead_symmetric(self):
        assert time_overhead(TimingParams(1.0, 1.0)) == pytest.approx(0.5)

    def test_time_overhead_direct(self):
        assert time_overhead(TimingParams(0.1, 0.9)) == pytest.approx(0.9)

    def test_avg_bit_duration_paper(self):
        assert uniform_avg_bit_duration(PAPER_TIMING) == pytest.approx(1.15)

    def test_avg_bit_duration_trivial(self):
        assert uniform_avg_bit_duration(TimingParams(1.0, 1.0)) == pytest.approx(1.0)
        assert uniform_avg_bit_duration(TimingParams(0.2, 1.8)) == pytest.approx(1.0)

    def test_effective_bit_rate_paper(self):
        assert effective_bit_rate(PAPER_TIMING) == pytest.approx(0.869565, abs=1e-6)
        assert effective_bit_rate(PAPER_TIMING) == pytest.approx(2 / 2.3, abs=1e-12)

    def test_effective_bit_rate_unit(self):
        assert effective_bit_rate(TimingParams(1.0, 1.0)) == pytest.approx(1.0)

    def test_duty_efficiency_paper(self):
        assert duty_efficiency(PAPER_TIMING) == pytest.approx(0.260870, abs=1e-6)

    def test_duty_efficiency_trivial(self):
        assert duty_efficiency(TimingParams(1.0, 1.0)) == pytest.approx(1.0)
        assert duty_efficiency(TimingParams(0.5, 1.5)) == pytest.approx(0.5)

    def test_rate_identities(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(100):
            t_on = float(rng.uniform(0.01, 2.0))
            t_off = float(rng.uniform(t_on, 5.0))
            t = TimingParams(t_on, t_off)
            assert raw_bit_rate(t) * t.symbol_duration == pytest.approx(1.0, abs=1e-12)
            assert effective_bit_rate(t) * uniform_avg_bit_duration(t) == pytest.approx(1.0, abs=1e-12)
            assert time_overhead(t) + t_on / (t_on + t_off) == pytest.approx(1.0, abs=1e-12)


class TestMaxChannelBitRate:
    def test_paper_ceiling(self):
        assert max_channel_bit_rate(0.040, 3) == pytest.approx(8.3333, abs=1e-3)

    def test_trivial(self):
        assert max_channel_bit_rate(1.0, 1) == pytest.approx(1.0)

    def test_derived(self):
        assert max_channel_bit_rate(0.040, 5) == pytest.approx(5.0)

    def test_rejects_bad_args(self):
        with pytest.raises(ValidationError):
            max_channel_bit_rate(0.0, 3)
        with pytest.raises(ValidationError):
            max_channel_bit_rate(0.04, 0)


class TestEncode:
    def test_framed_paper_example(self):
        sched = encode([1, 0, 1], PAPER_TIMING)
        assert [e.start for e in sched.events] == pytest.approx([0.0, 4.6])
        assert all(e.duration == pytest.approx(0.3) for e in sched.events)
        assert sched.total_span == pytest.approx(6.9)

    def test_empty_bits(self):
        sched = encode([], PAPER_TIMING)
        assert len(sched) == 0
        assert sched.total_span == 0.0

    def test_rejects_bad_bits_and_dose(self):
        with pytest.raises(ValidationError):
            encode([1, 2], PAPER_TIMING)
        with pytest.raises(ValidationError):
            encode([1], PAPER_TIMING, dose=0.0)

    def test_schedule_invariants_random_bits(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for length in (0, 1, 17, 1000, 10_000):
            bits = [int(b) for b in rng.random(length) < 0.5]
            sched = encode(bits, PAPER_TIMING)  # constructor enforces the invariants
            starts = [e.start for e in sched.events]
            assert starts == sorted(starts)
            for a, b in zip(sched.events, sched.events[1:]):
                assert a.start + a.duration <= b.start + 1e-12


class TestDecode:
    def test_frame_centers(self):
        peaks = peaks_at([0.15, 4.75])
        assert decode(peaks, PAPER_TIMING, 0.0, 3, 1.0) == [1, 0, 1]

    def test_silence_decodes_to_zeros(self):
        assert decode(PeakSet(()), PAPER_TIMING, 0.0, 4, 1.0) == [0, 0, 0, 0]

    def test_multiple_peaks_one_frame(self):
        peaks = peaks_at([0.15, 0.20])
        assert decode(peaks, PAPER_TIMING, 0.0, 1, 1.0) == [1]

    def test_window_and_delay_validation(self):
        with pytest.raises(ValidationError):
            decode(PeakSet(()), PAPER_TIMING, 0.0, 1, 2.0)  # > T_sym/2
        with pytest.raises(ValidationError):
            decode(PeakSet(()), PAPER_TIMING, -0.1, 1, 1.0)
        for delay in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="finite"):
                decode(PeakSet(()), PAPER_TIMING, delay, 1, 1.0)

    def test_peak_exactly_one_window_from_centre_is_a_one(self):
        # centre 0.1 + 0.2 + 0.3/2 and window 0.1 + 0.2: the peak at 0.15 is
        # within the window, yet below the float centre - window, 0.15000000000000002
        lower = decode(peaks_at([0.15]), PAPER_TIMING, 0.1 + 0.2, 1, 0.1 + 0.2)
        # centre 0.1 + 0.2/2 = 0.2 and window 0.7: the peak at 0.9 lies above
        # the float centre + window, 0.8999999999999999
        upper = decode(peaks_at([0.9]), TimingParams(0.2, 2.0), 0.1, 1, 0.7)
        assert lower == upper == [1]

    def test_noiseless_round_trip(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for length in (1, 2, 33, 256):
            bits = [int(b) for b in rng.random(length) < 0.5]
            sched = encode(bits, PAPER_TIMING)
            peaks = peaks_at([e.start + PAPER_TIMING.t_on / 2 for e in sched.events])
            assert decode(peaks, PAPER_TIMING, 0.0, length, 1.0) == bits
