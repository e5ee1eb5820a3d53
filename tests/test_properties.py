"""Property tests: the windowed and bisect-based receive chain against
brute-force references in ``helpers`` that check every sample or peak, and
the block-formatted CSV writer against per-row ``str.format`` text."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_decode,
    brute_greedy_detect,
    brute_greedy_match,
    full_axis_signal,
    oracle_candidates,
    per_row_csv,
    per_row_trace_csv,
)
from bubblelink.channel import ChannelParams, clean_signal, echo_passes
from bubblelink.dsp import PeakDetectParams, detect_peaks, peak_candidates
from bubblelink.metrics import MetricsReport, match_peaks
from bubblelink.modem import InjectionEvent, InjectionSchedule, TimingParams, decode
from bubblelink.signals import Peak, PeakSet, SensorTrace
from bubblelink.trace_io import (
    BLOCK_ROWS,
    write_comparison,
    write_peaks,
    write_schedule,
    write_trace,
)

PROPERTY = settings(deadline=None, max_examples=100)

# small integer levels make plateaus and equal amplitudes common
levels = st.lists(st.integers(0, 4), max_size=60).map(lambda v: np.array(v, dtype=float))

# times on a coarse grid give exact distance ties; a 0.1 step adds rounding
grid = st.sampled_from([0.25, 0.1])


def grid_times(step, max_size):
    return st.lists(st.integers(0, 80), unique=True, max_size=max_size).map(
        lambda ks: [k * step for k in sorted(ks)]
    )


@PROPERTY
@given(levels, st.integers(-1, 5))
def test_peak_candidates_match_oracle(x, threshold):
    assert peak_candidates(x, float(threshold)) == oracle_candidates(x, threshold)


@PROPERTY
@given(levels, st.integers(0, 4), st.integers(1, 8))
def test_detect_peaks_matches_brute_greedy(x, threshold, min_distance):
    peaks = detect_peaks(SensorTrace(1.0, 0.0, x), PeakDetectParams(float(threshold), min_distance))
    expected = brute_greedy_detect(x, threshold, min_distance)
    assert peaks.times() == [i + 0.5 for i in expected]
    assert [p.amplitude for p in peaks.peaks] == [x[i] for i in expected]


@PROPERTY
@given(st.data(), grid, st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0, 0.1 + 0.2]))
def test_match_peaks_matches_brute_greedy(data, step, tolerance):
    starts = data.draw(grid_times(step, 20))
    detections = data.draw(grid_times(step, 25))
    truth = InjectionSchedule(tuple(InjectionEvent(s, step / 2, 1.0) for s in starts), 10.0)
    truth_times = [e.start + e.duration / 2 for e in truth.events]
    m = match_peaks(PeakSet.from_times(detections), truth, tolerance)
    pairs = brute_greedy_match(truth_times, detections, tolerance)
    assert m.pairs == tuple(pairs)
    assert (m.tp, m.fp, m.fn) == (len(pairs), len(detections) - len(pairs), len(starts) - len(pairs))


@PROPERTY
@given(
    st.data(),
    grid,
    st.sampled_from([(0.3, 2.0), (0.2, 0.3), (0.1 + 0.2, 0.7)]),
    st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]),
    st.integers(0, 30),
)
def test_decode_matches_brute_any(data, step, on_off, window_fraction, n_bits):
    timing = TimingParams(*on_off)
    window = window_fraction * timing.symbol_duration / 2
    delay = data.draw(st.integers(0, 20)) * step
    times = data.draw(grid_times(step, 30))
    got = decode(PeakSet.from_times(times), timing, delay, n_bits, window)
    assert got == brute_decode(times, delay, timing.t_on, timing.symbol_duration, n_bits, window)


def _channel(initial_spread, pass_decay, dispersion_coeff):
    return ChannelParams(
        flow_rate=1.0,
        tube_diameter=0.004,
        distance_to_sensor=1.0,  # transit ~0.75 s at ~1.33 m/s
        loop_length=4.0,  # echoes ~3 s apart
        dispersion_coeff=dispersion_coeff,
        initial_spread=initial_spread,
        pass_decay=pass_decay,
        echo_cutoff=0.1,
        noise_std=0.0,
        spike_rate=0.0,
        spike_amplitude_max=0.0,
        sample_interval=0.04,
        rng_seed=0,
    )


@PROPERTY
@given(
    st.integers(1, 200),
    st.lists(st.integers(-40, 60), unique=True, max_size=6),
    st.floats(-6.0, 2.5),
    st.sampled_from([0.0, 0.5]),
    st.sampled_from([0.0, 0.05]),
)
def test_clean_signal_matches_full_axis_sum(n, start_steps, spread_exp, pass_decay, dispersion):
    # centres fall before 0 and past the last sample (n * 0.04 s <= 8 s);
    # sigma runs from 1 us to ~300 s, far wider than the trace
    params = _channel(10.0**spread_exp, pass_decay, dispersion)
    events = tuple(InjectionEvent(k * 0.3, 0.2, 1.0 + k % 3) for k in sorted(start_steps))
    schedule = InjectionSchedule(events, 0.0)
    times = (np.arange(n) + 0.5) * params.sample_interval
    passes = [p for e in schedule.events for p in echo_passes(e, params)]
    assert np.array_equal(clean_signal(schedule, params, times), full_axis_signal(passes, times))


def test_clean_signal_keeps_terms_just_inside_radius():
    params = _channel(0.01, 0.0, 0.0)
    schedule = InjectionSchedule((InjectionEvent(1.0, 0.2, 1.0),), 0.0)
    ((center, _, sigma),) = echo_passes(schedule.events[0], params)
    offsets = np.array([-40.0, -38.5, -38.0, 0.0, 38.0, 38.5, 40.0])
    times = center + offsets * sigma
    x = clean_signal(schedule, params, times)
    assert np.array_equal(x, full_axis_signal([(center, 1.0, sigma)], times))
    assert np.all(x[1:-1] > 0)  # at 38.5 sigma the term is a subnormal, not 0.0


# signs, both zeros, subnormals and magnitudes up to 1e300, next to arbitrary floats
amplitudes = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
    st.floats(-1e300, 1e300),
)


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]),
    st.lists(amplitudes, min_size=1, max_size=16),
    st.floats(1e-6, 10.0),
    st.floats(-1e4, 1e4),
)
def test_write_trace_matches_per_row_format(tmp_path_factory, n, values, dt, t0):
    samples = np.resize(np.array(values), n)  # repeats the drawn values to n samples
    path = tmp_path_factory.getbasetemp() / "blocked_trace.csv"
    write_trace(SensorTrace(dt, t0, samples), path)
    assert path.read_bytes() == per_row_trace_csv(samples, dt, t0).encode()


def test_small_tables_match_per_row_format(tmp_path):
    events = (InjectionEvent(0, 0.3, 1), InjectionEvent(2.0000004, 0.1 + 0.2, 1e-7))
    write_schedule(InjectionSchedule(events, 10.0), tmp_path / "s.csv")
    expected = per_row_csv(["start_s", "duration_s", "dose"], "{:.6f},{:.6f},{:.9g}", events)
    assert (tmp_path / "s.csv").read_bytes() == expected.encode()

    peaks = (Peak(0.02, -0.0), Peak(1 / 3, 123456789.5), Peak(7.5, 5e-324))
    write_peaks(PeakSet(peaks), tmp_path / "p.csv")
    expected = per_row_csv(["time_s", "amplitude"], "{:.6f},{:.9g}", peaks)
    assert (tmp_path / "p.csv").read_bytes() == expected.encode()

    reports = {
        "raw": MetricsReport(1 / 3, 1.0, 0.5, 0, 2 / 3, 7),
        "kalman": MetricsReport(0.0, 0.0, 0.0, 1.25, 0.1 + 0.2, 0),
    }
    write_comparison(reports, tmp_path / "c.csv")
    rows = [(name, r.precision, r.recall, r.f1, r.ber, r.bsr) for name, r in reports.items()]
    header = ["branch", "precision", "recall", "f1", "ber", "bsr"]
    expected = per_row_csv(header, "{}" + ",{:.9g}" * 5, rows)
    assert (tmp_path / "c.csv").read_bytes() == expected.encode()
