"""Property tests: the echo table, the chunked clean signal, the one-draw
spikes, the windowed and searchsorted receive chain and the settled-gain
Kalman filter against brute-force references in ``helpers`` that check
every pass, sample, spike or peak, the block-formatted CSV writer against
per-row ``str.format`` text, and the CSV table reader against a
row-by-row ``csv.reader`` reference."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_decode,
    brute_echo_passes,
    brute_greedy_detect,
    brute_greedy_match,
    brute_kalman,
    brute_spikes,
    csv_reader_table,
    full_axis_signal,
    oracle_candidates,
    peaks_at,
    per_row_csv,
    per_row_trace_csv,
)
from bubblelink import channel
from bubblelink.channel import ChannelParams, clean_signal, echo_passes, echo_table, simulate
from bubblelink.dsp import (
    KALMAN_BLOCK,
    KalmanParams,
    PeakDetectParams,
    detect_peaks,
    kalman_filter,
    peak_candidates,
)
from bubblelink.errors import FormatError, ValidationError
from bubblelink.metrics import MetricsReport, match_peaks
from bubblelink.modem import InjectionEvent, InjectionSchedule, TimingParams, decode
from bubblelink.signals import Peak, PeakSet, SensorTrace
from bubblelink.trace_io import (
    BLOCK_ROWS,
    SCHEDULE_HEADER,
    TRACE_HEADER,
    _read_table,
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
    assert peaks.times() == [i + 0.5 for i in expected]
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
    table = echo_table(InjectionSchedule(events, 0.0), params)
    assert list(zip(*(column.tolist() for column in table))) == [p for e in expected for p in e]
    assert [echo_passes(e, params) for e in events] == expected


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
    with mock.patch.object(channel, "_CHUNK_CELLS", chunk_cells):
        x = clean_signal(schedule, params, times)
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
    x = clean_signal(schedule, params, times)
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

# the edges, floats where %.9g prints fixed notation, and any float
amplitudes = st.one_of(
    st.sampled_from(KERNEL_EDGES),
    st.floats(1e-4, 1e9).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(-1e300, 1e300),
)

# start times: ordinary, past the kernel's range (1.4e8 s) and with texts
# wider than its time cells
start_times = st.one_of(st.floats(-1e4, 1e4), st.floats(-1e30, 1e30))


# empty, one row, either side of one block boundary, and past two
block_lengths = st.sampled_from(
    [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]
)


@settings(deadline=None, max_examples=60)
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


@settings(deadline=None, max_examples=30)
@given(block_lengths, st.integers(0, 2**32 - 1), st.floats(1e-6, 10.0), start_times)
def test_write_traces_match_per_row_format(tmp_path_factory, n, seed, dt, t0):
    rng = np.random.default_rng(seed)
    traces = [SensorTrace(dt, t0, rng.normal(size=n) * 10.0**k) for k in (-3, 0, 5)]
    paths = [tmp_path_factory.getbasetemp() / f"shared_time_{k}.csv" for k in range(3)]
    write_traces(dict(zip(paths, traces)))
    for path, trace in zip(paths, traces):
        assert path.read_bytes() == per_row_trace_csv(trace.samples, dt, t0).encode()


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


# the preset's tuning, a 2-cycle of p, and a p that takes ~10^5 steps to settle
PRESET_KALMAN = (1e-4, 1e-2, 1e-2)
CYCLING_KALMAN = (5.7484883908062975e-05, 3.208862899884772e-05, 3.208862899884772e-05)
SLOW_KALMAN = (1e-11, 2e3, 2e3)


@PROPERTY
@given(
    st.tuples(st.floats(0, 1e300), st.floats(0, 1e300, exclude_min=True), st.floats(0, 1e300)),
    st.floats(-1e6, 1e6),
    st.one_of(st.integers(0, 80), block_lengths),
    st.integers(0, 2**32 - 1),
)
@example(PRESET_KALMAN, 0.0, 200, 0)  # settles after 54 steps
@example(PRESET_KALMAN, 0.3, 20, 1)  # ends before it settles
@example(CYCLING_KALMAN, 0.0, 300, 2)
@example(SLOW_KALMAN, 1.0, 2 * KALMAN_BLOCK + 3, 3)
def test_kalman_filter_matches_brute(qrp, x0, n, seed):
    q, r, p0 = qrp
    x = np.random.default_rng(seed).normal(size=n) * 10.0 ** (seed % 7 - 3)
    got = kalman_filter(SensorTrace(0.04, 0.0, x), KalmanParams(q, r, x0, p0)).samples
    assert np.array_equal(got, brute_kalman(x, q, r, x0, p0))


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


@settings(deadline=None, max_examples=400)
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
