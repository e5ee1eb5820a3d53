"""Property tests: the echo table, the chunked clean signal, the one-draw
spikes, the windowed and searchsorted receive chain and the settled-gain and
lockstep-block Kalman filter against brute-force references in ``helpers``
that check every pass, sample, spike or peak, the block-formatted CSV writer
against per-row ``str.format`` text, the CSV table reader against a
row-by-row ``csv.reader`` reference, the bulk bit, schedule, peak-set and
match checks against the per-element ``loop_*`` references, and the config
layer merge against a key-by-key fold."""

import csv
import os
import urllib.request
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    CYCLING_KALMAN,
    PAPER_KALMAN,
    PRESET_KALMAN,
    SLOW_KALMAN,
    brute_decode,
    brute_echo_passes,
    brute_greedy_detect,
    brute_greedy_match,
    brute_kalman,
    brute_spikes,
    csv_reader_table,
    fold_layers,
    full_axis_signal,
    kalman_settled_variance,
    loop_bit_line,
    loop_encode_events,
    loop_match,
    loop_parse_bits,
    loop_peaks,
    loop_schedule_events,
    loop_validate_bits,
    oracle_candidates,
    peaks_at,
    per_row_csv,
    per_row_trace_csv,
    uncertain_times,
    uncertain_values,
)
from bubblelink import channel, dsp, trace_io
from bubblelink.channel import ChannelParams, clean_signal, echo_passes, echo_table, sample_count, simulate
from bubblelink.config import load_config, merge_values, parse_config_text, preset_text
from bubblelink.dsp import (
    KalmanParams,
    PeakDetectParams,
    detect_peaks,
    kalman_filter,
    peak_candidates,
)
from bubblelink.errors import FormatError, ValidationError
from bubblelink.metrics import MetricsReport, match_peaks
from bubblelink.modem import (
    InjectionEvent,
    InjectionSchedule,
    TimingParams,
    decode,
    encode,
    parse_bits,
    validate_bits,
)
from bubblelink.pipeline import run_experiment
from bubblelink.signals import Peak, PeakSet, SensorTrace
from bubblelink.trace_io import (
    BLOCK_ROWS,
    SCHEDULE_HEADER,
    TRACE_HEADER,
    _read_table,
    read_bits,
    read_trace,
    write_bits,
    write_comparison,
    write_peaks,
    write_schedule,
    write_trace,
    write_traces,
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
@example(np.array([0, 2, 0, 2, 0, 2, 0], dtype=float), 1, 3)  # tied amplitudes: the earlier wins
def test_detect_peaks_matches_brute_greedy(x, threshold, min_distance):
    peaks = detect_peaks(SensorTrace(1.0, 0.0, x), PeakDetectParams(float(threshold), min_distance))
    expected = brute_greedy_detect(x, threshold, min_distance)
    assert peaks.table[:, 0].tolist() == [i + 0.5 for i in expected]
    assert [p.amplitude for p in peaks.peaks] == [x[i] for i in expected]


@PROPERTY
@given(st.data(), grid, st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0, 0.1 + 0.2]))
def test_match_peaks_matches_brute_greedy(data, step, tolerance):
    starts = data.draw(grid_times(step, 20))
    detections = data.draw(grid_times(step, 25))
    truth = InjectionSchedule(tuple(InjectionEvent(s, step / 2, 1.0) for s in starts), 10.0)
    truth_times = [e.start + e.duration / 2 for e in truth.events]
    m = match_peaks(peaks_at(detections), truth, tolerance)
    pairs = brute_greedy_match(truth_times, detections, tolerance)
    assert m.pairs == tuple(pairs)
    assert (m.tp, m.fp, m.fn) == (len(pairs), len(detections) - len(pairs), len(starts) - len(pairs))


@PROPERTY
@given(
    grid,
    st.sampled_from([(0.3, 2.0), (0.2, 0.3), (0.1 + 0.2, 0.7), (0.5, 1.5)]),
    st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]),
    st.integers(0, 30),
    st.integers(0, 20),
    st.lists(st.integers(0, 80), unique=True, max_size=30).map(sorted),
)
# T_sym 2 s, window 0.5 s: peaks exactly one window from the centres 0.25, 2.25 and 4.25 s
@example(0.25, (0.5, 1.5), 0.5, 4, 0, [3, 7, 19])
@example(0.25, (0.3, 2.0), 0.5, 5, 4, [])  # no peaks
@example(0.1, (0.3, 2.0), 0.5, 0, 0, [1, 2])  # no bits
def test_decode_matches_brute_any(step, on_off, window_fraction, n_bits, delay_steps, peak_steps):
    timing = TimingParams(*on_off)
    window = window_fraction * timing.symbol_duration / 2
    delay = delay_steps * step
    times = [k * step for k in peak_steps]
    got = decode(peaks_at(times), timing, delay, n_bits, window)
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
    st.lists(st.floats(1e-3, 1e3), max_size=6),
    st.sampled_from([0.0, 0.35, 0.5, 0.9]),
    st.integers(0, 6),
    st.sampled_from([-1, 0, 1]),
)
@example([1.0, 0.3, 6.0], 0.5, 2, 0)  # 0.5**2 == 0.25 exactly: pass 2 ties and is kept
@example([1.0, 2.0], 0.0, 0, 0)  # no decay: one pass per event
def test_echo_table_matches_per_event_passes(doses, pass_decay, k, nudge):
    # the cutoff is pass_decay**k (1 without decay), where pass k ties with it, or the
    # float either side; a dose can round the tie either way, so events stop apart
    tie = pass_decay**k if pass_decay else 1.0
    cutoff = float(np.nextafter(tie, nudge * np.inf)) if nudge else tie
    params = replace(_channel(0.05, pass_decay, 0.05), echo_cutoff=cutoff)
    events = tuple(InjectionEvent(i * 10.0, 0.3, dose) for i, dose in enumerate(doses))
    expected = [brute_echo_passes(e, params) for e in events]
    schedule = InjectionSchedule(events, 0.0)
    table = echo_table(schedule, params)
    assert list(zip(*(column.tolist() for column in table))) == [p for e in expected for p in e]
    assert [echo_passes(e, params) for e in events] == expected
    span = max([schedule.total_span] + [c + 4.0 * s for e in expected for c, _, s in e])
    assert len(simulate(schedule, params)) == sample_count(span, params)


@PROPERTY
@given(
    st.integers(1, 200),
    st.lists(st.integers(-40, 60), unique=True, max_size=6),
    st.floats(-6.0, 2.5),
    st.sampled_from([0.0, 0.5]),
    st.sampled_from([0.0, 0.05]),
    st.sampled_from([1, 7, 64, channel._CHUNK_CELLS]),
)
def test_clean_signal_matches_full_axis_sum(n, start_steps, spread_exp, pass_decay, dispersion,
                                            chunk_cells):
    # centres fall before 0 and past the last sample (n * 0.04 s <= 8 s);
    # sigma runs from 1 us to ~300 s, far wider than the trace; small chunks
    # split the passes over many chunks
    params = _channel(10.0**spread_exp, pass_decay, dispersion)
    events = tuple(InjectionEvent(k * 0.3, 0.2, 1.0 + k % 3) for k in sorted(start_steps))
    schedule = InjectionSchedule(events, 0.0)
    times = (np.arange(n) + 0.5) * params.sample_interval
    passes = [p for e in schedule.events for p in brute_echo_passes(e, params)]
    table = tuple(np.array(passes).reshape(-1, 3).T)
    with mock.patch.object(channel, "_CHUNK_CELLS", chunk_cells):
        x = clean_signal(table, times)
    assert np.array_equal(x, full_axis_signal(passes, times))


@PROPERTY
@given(st.integers(0, 2**32), st.sampled_from([0.5, 5.0, 50.0]), st.integers(0, 4))
def test_simulate_spikes_match_per_spike_loop(seed, rate, n_events):
    # at 50 spikes/s most bins of the ~10 s trace are hit more than once
    quiet = replace(_channel(0.05, 0.5, 0.05), rng_seed=seed)
    spiky = replace(quiet, spike_rate=rate, spike_amplitude_max=1.2)
    events = tuple(InjectionEvent(k * 2.3, 0.3, 1.0) for k in range(n_events))
    schedule = InjectionSchedule(events, 2.3 * n_events)
    expected = brute_spikes(simulate(schedule, quiet).samples, spiky)
    assert np.array_equal(simulate(schedule, spiky).samples, expected)


def test_clean_signal_keeps_terms_just_inside_radius():
    params = _channel(0.01, 0.0, 0.0)
    schedule = InjectionSchedule((InjectionEvent(1.0, 0.2, 1.0),), 0.0)
    ((center, _, sigma),) = echo_passes(schedule.events[0], params)
    offsets = np.array([-40.0, -38.5, -38.0, 0.0, 38.0, 38.5, 40.0])
    times = center + offsets * sigma
    x = clean_signal(echo_table(schedule, params), times)
    assert np.array_equal(x, full_axis_signal([(center, 1.0, sigma)], times))
    assert np.all(x[1:-1] > 0)  # at 38.5 sigma the term is a subnormal, not 0.0


# Values at the edges of the trace writer's numpy kernel, which formats a
# value only where its rounding is certain and leaves the rest to Python:
TIE = 123456789.5  # an exact tie at the 9th significant digit
KERNEL_EDGES = [
    TIE, np.nextafter(TIE, 0.0), np.nextafter(TIE, np.inf), 0.5, 2.5e-7,
    # rounding carries across a power of ten
    9.9999999995, 0.99999999995, 99999.99995, 0.00099999999995,
    # either side of the switches between fixed and exponent notation
    9.99999999e-5, 9.999999999e-5, 1e-4, 999999999.4, 999999999.6, 999999999.5,
    # both zeros, subnormals and the far ends of the range
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
]

# the edges, floats where %.9g prints fixed notation, floats either side of the
# ends of the kernel's domain [0, 10), and any float
amplitudes = st.one_of(
    st.sampled_from(KERNEL_EDGES),
    st.floats(1e-4, 1e9).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(9.9, 10.1),
    st.floats(-1e-3, 1e-3),
    st.floats(-1e300, 1e300),
)

# start times: ordinary, either side of the end of the kernel's range
# (100,000 s), and with texts wider than its time cells
start_times = st.one_of(st.floats(-1e4, 1e4), st.floats(9.9e4, 1.01e5), st.floats(-1e30, 1e30))


# empty, one row, either side of one block boundary, and past two
block_lengths = st.sampled_from(
    [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]
)


# CI raises both counts (WRITE_TRACE_EXAMPLES), since on each numpy version it
# tests these are what check the kernel's integer arithmetic
@settings(deadline=None, max_examples=int(os.environ.get("WRITE_TRACE_EXAMPLES", "60")))
@given(
    block_lengths,
    st.lists(amplitudes, min_size=1, max_size=16),
    st.floats(1e-6, 10.0),
    start_times,
)
@example(n=len(KERNEL_EDGES), values=KERNEL_EDGES, dt=0.04, t0=0.0)
@example(n=BLOCK_ROWS + 1, values=KERNEL_EDGES, dt=1e-7, t0=-3e-7)  # times that print -0.000000
@example(n=7, values=[1.0], dt=5e-7, t0=-1.5e-6)  # every other time a 6-decimal tie
@example(n=3, values=[1.0], dt=1e20, t0=-1e25)  # times wider than their cells
def test_write_trace_matches_per_row_format(tmp_path_factory, n, values, dt, t0):
    samples = np.resize(np.array(values), n)  # repeats the drawn values to n samples
    path = tmp_path_factory.getbasetemp() / "blocked_trace.csv"
    write_trace(SensorTrace(dt, t0, samples), path)
    assert path.read_bytes() == per_row_trace_csv(samples, dt, t0).encode()


@settings(deadline=None, max_examples=int(os.environ.get("WRITE_TRACE_EXAMPLES", "30")))
@given(block_lengths, st.integers(0, 2**32 - 1), st.floats(1e-6, 10.0), start_times)
def test_write_traces_match_per_row_format(tmp_path_factory, n, seed, dt, t0):
    rng = np.random.default_rng(seed)
    traces = [SensorTrace(dt, t0, rng.normal(size=n) * 10.0**k) for k in (-3, 0, 5)]
    paths = [tmp_path_factory.getbasetemp() / f"shared_time_{k}.csv" for k in range(3)]
    write_traces(dict(zip(paths, traces)))
    for path, trace in zip(paths, traces):
        assert path.read_bytes() == per_row_trace_csv(trace.samples, dt, t0).encode()


# near 1 us, a time half-way between two microseconds can print as its neighbour does
@PROPERTY
@given(st.floats(1.1e-6, 10.0), st.floats(-1e4, 1e4), st.integers(2, 3000))
@example(dt=1 / 3, t0=0.0, n=1000)  # printed steps of 0.333333 and 0.333334 s
@example(dt=1 / 7, t0=0.0, n=1000)
@example(dt=0.0333333, t0=0.0, n=690)
@example(dt=0.04, t0=5e-7, n=1000)  # every time a 6-decimal tie, so two steps differ by 2 us
@example(dt=1.5e-6, t0=0.0, n=1000)
@example(dt=1e-6, t0=0.0, n=1000)
def test_read_trace_reads_back_any_interval_from_a_microsecond(tmp_path_factory, dt, t0, n):
    path = tmp_path_factory.getbasetemp() / "any_interval.csv"
    trace = SensorTrace(dt, t0, np.arange(n, dtype=float))
    write_trace(trace, path)
    back = read_trace(path)
    # the first and last printed times are within 0.5 us of the clock's, and the
    # clock read back reaches the last within 0.5 us more
    assert np.max(np.abs(back.bin_starts() - trace.bin_starts())) <= 1.5e-6 + 1e-9
    assert np.array_equal(back.samples, trace.samples)


def test_write_traces_splice_fallback_rows_inside_a_block(tmp_path):
    n = 2 * BLOCK_ROWS + 3
    plain = np.linspace(0.1, 0.9, n)
    edged = plain.copy()
    edged[[BLOCK_ROWS // 2, BLOCK_ROWS + 7, n - 2]] = [1e300, TIE, -5e-324]
    # a tie every other row in the time column; the spliced trace comes first,
    # so the traces after it show that no spliced text is left behind
    traces = [SensorTrace(5e-7, 0.0, x) for x in (edged, plain, -plain)]
    paths = [tmp_path / f"{k}.csv" for k in range(3)]
    write_traces(dict(zip(paths, traces)))
    for path, trace in zip(paths, traces):
        assert path.read_bytes() == per_row_trace_csv(trace.samples, 5e-7, 0.0).encode()


def plain_values(n):
    """``n`` values in [0, 9.9), as every workload's traces hold: the narrowest
    layout, which the drawn examples above seldom fill a block with."""
    return np.random.default_rng(n).random(n) * 9.9


# a value at an edge of the kernel's domain [0, 10), and the rows it leaves to Python's %
PLAIN_BLOCK_EDGES = [
    (9.99999999, 0), (0.0, 0),  # the largest value and the one zero that numpy formats
    (9.999999995, 1), (9.9999999995, 1), (10.0, 1),  # rounds to or is 10, which %g prints as "10"
    (1e-4, 0), (9.99999999e-5, 1),  # either side of exponent notation
    (-0.0, 1), (-1e-9, 1), (-0.5, 1), (-1.23456789e-100, 1),  # a sign, and a 17-byte text
]


@pytest.mark.parametrize("edge, spliced", PLAIN_BLOCK_EDGES, ids=[str(e) for e, _ in PLAIN_BLOCK_EDGES])
def test_write_trace_edge_inside_a_plain_block(tmp_path, monkeypatch, edge, spliced):
    samples = plain_values(BLOCK_ROWS + 5)
    samples[BLOCK_ROWS // 3] = edge
    rows, splice = [], trace_io._splice
    monkeypatch.setattr(trace_io, "_splice", lambda out, r, texts: (
        rows.append(r.size), splice(out, r, texts)))
    path = tmp_path / "edge.csv"
    write_trace(SensorTrace(0.04, 0.0, samples), path)
    assert path.read_bytes() == per_row_trace_csv(samples, 0.04, 0.0).encode()
    assert sum(rows) == spliced


@pytest.mark.parametrize("power", [10.0, 1000.0, 10_000.0, 100_000.0])
def test_write_trace_times_crossing_a_power_of_ten(tmp_path, power):
    samples = plain_values(BLOCK_ROWS)
    t0 = power - 100 * 0.04  # 100 rows before it, inside the first block
    path = tmp_path / "crossing.csv"
    write_trace(SensorTrace(0.04, t0, samples), path)
    assert path.read_bytes() == per_row_trace_csv(samples, 0.04, t0).encode()


# the times from 100,000 s on are spliced: 100 rows before it, and a start that
# rounds to it, so that every time prints at least "100000.000000"
@pytest.mark.parametrize("t0, spliced", [(99_996.0, 4900), (99_999.9999996, 5000)])
def test_write_trace_splices_times_from_100000_s(tmp_path, monkeypatch, t0, spliced):
    samples = plain_values(5000)
    sizes, splice = [], trace_io._splice
    monkeypatch.setattr(trace_io, "_splice", lambda out, rows, texts: (
        sizes.append(rows.size), splice(out, rows, texts)))
    trace, path = SensorTrace(0.04, t0, samples), tmp_path / "late.csv"
    write_trace(trace, path)
    assert path.read_bytes() == per_row_trace_csv(samples, 0.04, t0).encode()
    times = sizes[0::2]  # each block splices its times, then its values
    assert sum(times) == uncertain_times(trace.bin_starts()) == spliced


def test_write_trace_ends_a_long_time_base(tmp_path):
    # 977,917 samples at 0.04 s end at 39,116 s, past the 4-digit time field
    n, first = 977_917, 977_917 - 2 * BLOCK_ROWS - 5
    samples = plain_values(n)
    path = tmp_path / "long.csv"
    write_trace(SensorTrace(0.04, 0.0, samples), path)
    tail = "".join(f"\n{k * 0.04:.6f},{x:.9g}" for k, x in zip(range(first, n), samples[first:].tolist()))
    with open(path, "rb") as fh:
        fh.seek(-len(tail) - 1, os.SEEK_END)
        assert fh.read() == (tail + "\n").encode()


# the preset, and a 1,000-bit payload as the long-record benchmark workload sends
WORKLOAD_CONFIGS = pytest.mark.parametrize("overrides", [
    {},
    {"bits.length": "1000", "bits.seed": "3", "channel.rng_seed": "3"},
], ids=["paper-like", "1000-bits"])


@WORKLOAD_CONFIGS
def test_workload_traces_stay_in_the_trace_kernel_domain(overrides):
    result = run_experiment(load_config(preset="paper-like", overrides=overrides))
    for name, branch in result.branches.items():
        times, x = branch.trace.bin_starts(), branch.trace.samples
        assert not np.signbit(times).any() and times.max() < 1e5, (
            f"the {name} trace holds a time outside [0, 100,000 s), which the trace writer "
            "splices row by row with Python's %; give such traces a benchmark workload "
            "before the writer gets a numpy path for them")
        assert not np.signbit(x).any() and x.max() < 10, (
            f"the {name} trace holds a value outside [0, 10), which the "
            "trace writer splices row by row with Python's %; give such traces a benchmark "
            "workload before the writer gets a numpy path for them")


@WORKLOAD_CONFIGS
def test_write_traces_splice_only_uncertain_numbers(tmp_path, monkeypatch, overrides):
    result = run_experiment(load_config(preset="paper-like", overrides=overrides))
    traces = [branch.trace for branch in result.branches.values()]
    spliced, splice = [], trace_io._splice
    monkeypatch.setattr(trace_io, "_splice", lambda out, rows, texts: (
        spliced.append(rows.size), splice(out, rows, texts)))
    write_traces({tmp_path / f"{k}.csv": trace for k, trace in enumerate(traces)})
    expected = uncertain_times(traces[0].bin_starts()) + sum(uncertain_values(t.samples) for t in traces)
    assert sum(spliced) == expected
    # 39,000 s times widen their field and are formatted by numpy; the x1000
    # values of 10 and more, outside the kernel's [0, 10), are spliced
    scaled = SensorTrace(0.04, 39_000.0, traces[0].samples * 1000)
    spliced.clear()
    write_trace(scaled, tmp_path / "scaled.csv")
    times, values = spliced[0::2], spliced[1::2]  # each block splices its times, then its values
    assert sum(times) == uncertain_times(scaled.bin_starts()) == 0
    assert sum(values) == uncertain_values(scaled.samples) >= np.count_nonzero(scaled.samples >= 10) > 0
    expected_text = per_row_trace_csv(scaled.samples, 0.04, 39_000.0)
    assert (tmp_path / "scaled.csv").read_bytes() == expected_text.encode()


@pytest.mark.parametrize("other", [
    SensorTrace(0.04, 0.5, np.zeros(5)),
    SensorTrace(0.05, 0.0, np.zeros(5)),
    SensorTrace(0.04, 0.0, np.zeros(6)),
], ids=["t0", "sample_interval", "length"])
def test_write_traces_refuses_mismatched_time_bases(tmp_path, other):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    with pytest.raises(ValidationError, match="must share t0, sample_interval and length"):
        write_traces({paths[0]: SensorTrace(0.04, 0.0, np.ones(5)), paths[1]: other})
    assert not any(p.exists() for p in paths)


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


# the paper-like tuning with p0 at its float fixed point
SETTLED_KALMAN = (*PAPER_KALMAN[:2], kalman_settled_variance(*PAPER_KALMAN))


@PROPERTY
@given(
    st.tuples(st.floats(0, 1e300), st.floats(0, 1e300, exclude_min=True), st.floats(0, 1e300)),
    st.floats(-1e6, 1e6),
    st.one_of(st.integers(0, 80), block_lengths),
    st.integers(0, 2**32 - 1),
)
@example(PRESET_KALMAN, 0.0, 200, 0)  # settles after 180 steps
@example(PRESET_KALMAN, 0.3, 20, 1)  # ends before it settles
@example(CYCLING_KALMAN, 0.0, 300, 2)
@example(SLOW_KALMAN, 1.0, 2051, 3)
@example(PAPER_KALMAN, 0.0, 0, 4)
@example(PAPER_KALMAN, 0.5, 1, 5)
@example(PAPER_KALMAN, 0.0, 54, 6)  # settles at the last sample, so no sample takes the settled gain
@example(SETTLED_KALMAN, 0.0, 60, 7)  # settles at the first sample
def test_kalman_filter_matches_brute(qrp, x0, n, seed):
    q, r, p0 = qrp
    x = np.random.default_rng(seed).normal(size=n) * 10.0 ** (seed % 7 - 3)
    got = kalman_filter(SensorTrace(0.04, 0.0, x), KalmanParams(q, r, x0, p0)).samples
    assert np.array_equal(got, brute_kalman(x, q, r, x0, p0))


@settings(deadline=None, max_examples=2000)
@given(
    st.sampled_from([PAPER_KALMAN, PRESET_KALMAN, SETTLED_KALMAN]),
    st.floats(-1e6, 1e6),
    st.integers(0, 1500),
    st.integers(0, 2**32 - 1),
    st.sampled_from([dsp._WARMUP_BITS, 1e-9]),
    st.sampled_from([1, 2]),
    st.booleans(),
)
@example(PAPER_KALMAN, -0.0, 600, 0, dsp._WARMUP_BITS, 1, True)
def test_kalman_blocks_match_brute(qrp, x0, n, seed, warmup_bits, stride, signed_zeros):
    # one block after the generator's is enough for the block path, so short traces take
    # it; a warm-up of 1e-9 bits gives one-sample blocks from a one-step guess, which
    # nearly all fall back
    q, r, p0 = qrp
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * 10.0 ** (seed % 7 - 3)
    if signed_zeros:
        x = np.where(rng.random(n) < 0.5, np.copysign(0.0, x), x)
    x = np.repeat(x, stride)[::stride]  # strided samples when stride is 2
    with mock.patch.object(dsp, "_MIN_BLOCKS", 1), mock.patch.object(dsp, "_WARMUP_BITS", warmup_bits):
        got = kalman_filter(SensorTrace(0.04, 0.0, x), KalmanParams(q, r, x0, p0)).samples
    assert np.array_equal(got.view(np.int64), brute_kalman(x, q, r, x0, p0).view(np.int64))


plain_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e4, 1e4).map("{:.6f}".format),
    st.integers(-(10**6), 10**6).map(str),
)
# csv quoting, padding and values that float refuses, accepts only as text, or reads as non-finite
odd_cells = st.sampled_from([
    '"1.5"', '"1,5"', '" 2"', '"', " 2.5 ", "\t3", "nan", "inf", "-Infinity", "1e999", "abc", "",
    "1.2.3", "0x10", "1_000", "+.5", "\xa07", "\x1c3", "\u0661", "\u20281",
])
line_ends = st.sampled_from(["\n", "\r\n", "\r"])
rarely = st.sampled_from([False, False, False, True])


@st.composite
def csv_texts(draw):
    """A table text, plain unless it draws odd cells (csv quoting, padding,
    non-numbers), CR line ends, blank lines or wrong column counts, a padded
    or quoted header, or a missing final newline."""
    header = draw(st.sampled_from([TRACE_HEADER, SCHEDULE_HEADER]))
    head = ",".join(header)
    if draw(rarely):
        quoted = f'"{header[0]}",' + ",".join(header[1:])
        head = draw(st.sampled_from([quoted, f" {head} ", "t,a", ""]))
    cells = st.one_of(plain_cells, odd_cells) if draw(rarely) else plain_cells
    widths = st.just(len(header))
    if draw(rarely):
        widths = st.one_of(widths, st.sampled_from([len(header) - 1, len(header) + 1, 0]))
    row = widths.flatmap(lambda w: st.lists(cells, min_size=w, max_size=w))
    rows = draw(st.lists(row, max_size=12))
    ends = line_ends if draw(rarely) else st.just("\n")
    text = head + "".join(draw(ends) + ",".join(row) for row in rows)
    return header, text if draw(rarely) else text + draw(ends)


# CI raises the count, since on each numpy version it tests this is what checks
# np.loadtxt's path route against csv.reader
@settings(deadline=None, max_examples=int(os.environ.get("READ_TABLE_EXAMPLES", "400")))
@given(csv_texts())
@example((TRACE_HEADER, "time_s,amplitude\n0,1\n\r0.04,2\n"))  # a lone CR makes a blank row
@example((TRACE_HEADER, "time_s,amplitude\r\n0,1\r\n0.04,2\r\n"))
@example((SCHEDULE_HEADER, 'start_s,duration_s,dose\n0,"0,3",1\n'))
# each difference between np.loadtxt and csv.reader + float that _read_table guards against
@example((TRACE_HEADER, "time_s,amplitude\n0,1\n\n0.04,2\n"))  # a blank line, which np.loadtxt skips
@example((TRACE_HEADER, "time_s,amplitude\n\n\n"))  # a blank body, on which np.loadtxt warns
@example((TRACE_HEADER, "time_s,amplitude\n0,\x1c1\n"))  # np.loadtxt strips \x1c, float refuses it
@example((TRACE_HEADER, "time_s,amplitude\n0,1,2\n"))  # np.loadtxt reads a wider table
@example((TRACE_HEADER, "time_s,amplitude\n0,inf\n"))  # np.loadtxt accepts inf and nan
@example((TRACE_HEADER, 'time_s,amplitude\n"0\n",1\n'))  # a quoted line end: one row, two lines
@example((TRACE_HEADER, 'time_s,amplitude\n0, 1\n 0.04 ,\t2\n'))  # padding both strip
@example((TRACE_HEADER, 'time_s,amplitude\n0, "1"\n'))  # a quote after a space is a literal
@example((TRACE_HEADER, "time_s,amplitude\n0,1\n \n"))  # a line of padding
@example((TRACE_HEADER, "time_s,amplitude\r\r\n0.0,0.0\n"))  # csv.reader: the header, then a blank row
def test_read_table_matches_csv_reader(tmp_path_factory, header_text):
    header, text = header_text
    path = tmp_path_factory.getbasetemp() / "table.csv"
    path.write_bytes(text.encode())
    try:
        expected = csv_reader_table(text, header, path)
    except FormatError as exc:
        with pytest.raises(FormatError) as got:
            _read_table(path, header)
        assert str(got.value) == str(exc)
    else:
        assert np.array_equal(_read_table(path, header), expected)


def _long_table(newline, boundary_end):
    """A trace table whose body passes 64 KiB, the reader's chunk, with the body's
    byte 65,535, the last of the first chunk, the first byte of ``boundary_end``."""
    body = ""
    while len(body) < (1 << 16) - 100:
        body += f"{len(body) * 1e-3:.6f},1.5{newline}"
    pad = (1 << 16) - 1 - len(body) - len("0,") - len("2")  # zeros that put the end there
    body += "0," + "0" * pad + "2" + boundary_end + "0.5,3" + newline
    return "time_s,amplitude" + newline + body


@pytest.mark.parametrize("name, text, loop", [
    *[(f"table{suffix}", "time_s,amplitude\n0,1\n0.04,2\n", True)
      for suffix in (".gz", ".bz2", ".xz", ".lzma")],
    ("http://localhost/table.csv", "time_s,amplitude\n0,1\n0.04,2\n", False),
    ("table.csv", "time_s,amplitude\n0,1\r0.04,2\n", True),
    ("table.csv", "time_s,amplitude\n0,1\r\r\n0.04,2\n", True),
    ("table.csv", _long_table("\r\n", "\r\n"), False),
    ("table.csv", _long_table("\n", "\r"), True),
    ("table.csv", _long_table("\n", "\n"), False),
], ids=["gz", "bz2", "xz", "lzma", "under-http-dir", "lone-cr", "cr-cr-lf",
        "crlf-split-by-chunk", "lone-cr-ending-chunk", "over-64k"])
def test_read_table_edges_match_csv_reader(tmp_path, monkeypatch, name, text, loop):
    """A suffix np.loadtxt would decompress, or a body holding a lone CR, takes the
    csv.reader loop; a path that parses as a URL reads as the local file it is."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode())

    def no_download(*args, **kwargs):
        raise AssertionError("the reader tried to download a file")

    monkeypatch.setattr(urllib.request, "urlopen", no_download)
    try:
        expected = csv_reader_table(text, TRACE_HEADER, name)
    except FormatError as exc:
        expected = exc
    if not loop:
        monkeypatch.setattr(csv, "reader", None)
    if isinstance(expected, FormatError):
        with pytest.raises(FormatError) as got:
            _read_table(name, TRACE_HEADER)
        assert str(got.value) == str(expected)
    else:
        assert np.array_equal(_read_table(name, TRACE_HEADER), expected)


def same_outcome(bulk, loop, *args):
    """``bulk(*args)`` returns what ``loop(*args)`` does, by repr, so that NaN and -0.0
    count, or raises the same type and text."""
    try:
        expected = loop(*args)
    except Exception as exc:
        with pytest.raises(type(exc)) as got:
            bulk(*args)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return None
    got = bulk(*args)
    assert repr(got) == repr(expected)
    return got


bit_values = st.sampled_from([0, 1]) | st.sampled_from(
    [0.0, 1.0, True, False, 2, -1, 0.5, float("nan"), "1", None, np.int64(1), np.int64(3)])
# each container the library is handed bits in; a numpy array holds one dtype
bit_inputs = st.one_of(
    st.lists(st.sampled_from([0, 1]), max_size=40),
    st.lists(bit_values, max_size=40),
    st.lists(bit_values, max_size=40).map(tuple),
    st.lists(st.integers(-1, 2), max_size=40).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=40).map(lambda v: np.array(v, dtype=bool)),
    st.lists(st.sampled_from([0.0, 1.0, 0.5]), max_size=40).map(lambda v: np.array(v)),
)


@PROPERTY
@given(bit_inputs)
@example([1, 0, 2, 3])  # the first bad bit is named
@example(np.array([0, 1, 7]))  # by its numpy repr
@example(np.array([True, False]))
@example((0.0, 1.0, 1.0))
@example([1, "1"])  # equal to 1 as a float, not as an element
def test_bit_checks_match_per_bit_loops(tmp_path_factory, bits):
    checked = same_outcome(validate_bits, loop_validate_bits, bits)
    if checked is not None:
        assert all(type(b) is int for b in checked)
    path = tmp_path_factory.getbasetemp() / "bits.txt"
    same_outcome(lambda b: (write_bits(b, path), path.read_text())[1], loop_bit_line, bits)
    timing = TimingParams(0.3, 2.0)
    same_outcome(lambda b: [tuple(e) for e in encode(b, timing, 1.5).events],
                 lambda b: loop_encode_events(b, 0.3, timing.symbol_duration, 1.5), bits)


@PROPERTY
@given(st.text(st.sampled_from("0101012 x\u00e9"), max_size=30))
def test_parse_bits_matches_per_character_loop(tmp_path_factory, text):
    same_outcome(parse_bits, loop_parse_bits, text, "src")
    path = tmp_path_factory.getbasetemp() / "bits.txt"
    path.write_text(text, encoding="utf-8")
    if set(text) <= {"0", "1"}:
        assert read_bits(path) == loop_parse_bits(text, "src")


# starts and durations on a coarse grid tie and touch; a few values fail each check
event_numbers = st.sampled_from(
    [0.0, 0.3, 0.5, 1.0, 1.5, 0.1 + 0.2, -1.0, float("inf"), float("nan")])
events = st.lists(st.tuples(event_numbers, event_numbers, event_numbers), max_size=8)


@PROPERTY
@given(events, st.sampled_from([0.0, 3.0, -1.0]), st.sampled_from([0.0, 0.25, -2.0]))
@example([(0.0, 1.0, 1.0), (0.5, -1.0, 1.0), (0.0, float("nan"), 1.0)], 3.0, 0.0)  # event 1 first
@example([(1.0, 0.5, 1.0), (0.5, 0.5, 1.0), (1.5, 1.0, 1.0)], 3.0, 0.0)  # unsorted before overlap
@example([(0.0, 0.1 + 0.2, 1.0), (0.3, 1.0, 1.0)], 3.0, 0.0)  # touching within 1e-12
def test_schedule_checks_match_per_event_loop(events, span, offset):
    def bulk(events, span):
        return [tuple(e) for e in InjectionSchedule(tuple(events), span).events]

    if same_outcome(bulk, loop_schedule_events, events, span) is not None:
        schedule = InjectionSchedule(tuple(events), span)
        moved = [(start + offset, duration, dose) for start, duration, dose in schedule.events]
        same_outcome(lambda e, t: [tuple(ev) for ev in schedule.shifted(offset).events],
                     loop_schedule_events, moved, max(0.0, span + offset))
        assert all(type(e) is InjectionEvent for e in schedule.events)


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 0.1 + 0.2, float("nan")]),
                          st.floats(-2.0, 2.0)), max_size=8))
@example([(0.0, 1.0), (0.5, 2.0), (0.5, 1.0)])
@example([(float("nan"), 1.0)])  # a lone NaN time
@example([(1.0, 0.5), (0.5, float("inf"))])  # an infinite amplitude after an unsorted pair
def test_peak_set_checks_match_per_peak_loop(pairs):
    def bulk(pairs):
        return [tuple(p) for p in PeakSet(tuple(pairs)).peaks]

    if same_outcome(bulk, loop_peaks, pairs) is not None:
        peaks = PeakSet(np.array(pairs, dtype=float).reshape(-1, 2))
        assert repr([tuple(p) for p in peaks.peaks]) == repr(loop_peaks(pairs))
        assert all(type(p) is Peak for p in peaks.peaks)


@PROPERTY
@given(st.data(), grid, st.sampled_from([0.1, 0.25, 0.5, 1.0, 0.1 + 0.2, 0.0, -1.0, float("nan")]))
def test_match_peaks_matches_bisect_loop(data, step, tolerance):
    starts = data.draw(grid_times(step, 20))
    detections = data.draw(grid_times(step, 25))
    events = [(s, step / 2, 1.0) for s in starts]

    def bulk(events, detections, tolerance):
        m = match_peaks(peaks_at(detections), InjectionSchedule(tuple(events), 10.0), tolerance)
        return m.tp, m.fp, m.fn, m.pairs

    same_outcome(bulk, loop_match, events, detections, tolerance)


# the payload keys, the key that BUBBLELINK_SEED sets and one plain key
MERGE_KEYS = ("bits.value", "bits.length", "bits.seed", "channel.rng_seed", "dose")
LAYERS = st.dictionaries(st.sampled_from(MERGE_KEYS), st.integers(0, 99).map(str))


@settings(deadline=None, max_examples=300)
@given(preset=st.booleans(), file_layer=st.none() | LAYERS, overrides=LAYERS,
       env_seed=st.none() | st.integers(0, 99).map(str))
@example(preset=True, file_layer={"bits.value": "1", "bits.length": "5"}, overrides={},
         env_seed=None)
@example(preset=True, file_layer={"bits.length": "5", "bits.seed": "3"},
         overrides={"bits.value": "1"}, env_seed="8")
def test_merge_values_matches_per_layer_fold(tmp_path_factory, preset, file_layer, overrides,
                                             env_seed):
    layers = [parse_config_text(preset_text("paper-like"))] if preset else []
    path = None
    if file_layer is not None:
        path = tmp_path_factory.getbasetemp() / "layer.cfg"
        path.write_text("".join(f"{key}={value}\n" for key, value in file_layer.items()))
        layers.append(file_layer)
    layers.append(overrides)
    env = {}
    if env_seed is not None:
        env = {"BUBBLELINK_SEED": env_seed}
        layers.append({"channel.rng_seed": env_seed})
    with mock.patch.dict(os.environ, env):
        merged = merge_values(path, "paper-like" if preset else None, overrides)
    assert merged == fold_layers(layers)
