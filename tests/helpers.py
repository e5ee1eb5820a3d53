"""Independent brute-force oracles used by the unit and acceptance tests.

These deliberately share no code with the library: plateau scanning,
suppression, matching, the Kalman recursion, echo passes, spike draws, CSV
reading and the config layer merge are re-derived from their definitions
so the library implementations are checked against a second, exhaustive
path. The ``loop_*`` oracles check bit strings, schedules and peak sets,
and match peaks, one element at a time: the references for the library's
bulk numpy checks. ``peaks_at`` is the one exception: it builds library
peak sets as test input.
"""

import csv
import io
import math
from bisect import bisect_left, bisect_right
from itertools import groupby

import numpy as np

from bubblelink.errors import FormatError, ValidationError
from bubblelink.signals import Peak, PeakSet


def peaks_at(times, amplitude=1.0):
    """A PeakSet with one peak of ``amplitude`` at each of the ascending ``times``."""
    return PeakSet(tuple(Peak(float(t), amplitude) for t in times))


# (q, r, p0) tunings: the paper-like preset's, whose p settles after 54 steps;
# default_kalman_params' at unit scale, after 180; a 2-cycle of p; and a p
# that takes ~10^5 steps to settle
PAPER_KALMAN = (0.018, 0.14, 0.14)
PRESET_KALMAN = (1e-4, 1e-2, 1e-2)
CYCLING_KALMAN = (5.7484883908062975e-05, 3.208862899884772e-05, 3.208862899884772e-05)
SLOW_KALMAN = (1e-11, 2e3, 2e3)


def kalman_settled_variance(q, r, p0):
    """The float variance at which the filter's update, iterated from ``p0``,
    first repeats; it never returns if p cycles."""
    p = p0
    while True:
        p_pred = p + q
        p_next = (1.0 - p_pred / (p_pred + r)) * p_pred
        if p_next == p:
            return p
        p = p_next


def kalman_variance_fixed_point(q, r):
    """Steady-state posterior variance p* with p* = (p*+q) r / (p*+q+r)."""
    # positive root of p^2 + q p - q r = 0
    return (-q + np.sqrt(q * q + 4.0 * q * r)) / 2.0


def brute_kalman(x, q, r, x0, p0):
    """Scalar random-walk Kalman filter with the gain recomputed from the
    variance at every sample."""
    out = np.empty(len(x))
    p = p0
    for i, z in enumerate(x):
        p_pred = p + q
        k = p_pred / (p_pred + r)
        x0 = x0 + k * (z - x0)
        p = (1.0 - k) * p_pred
        out[i] = x0
    return out


def brute_maf(x, window):
    """Trailing windowed mean computed sample by sample."""
    return np.array([x[max(0, i - window + 1) : i + 1].mean() for i in range(len(x))])


def oracle_candidates(x, threshold):
    """Local maxima at/above threshold; first index of each maximal plateau."""
    runs = []
    pos = 0
    for value, group in groupby(x):
        length = len(list(group))
        runs.append((pos, pos + length - 1, value))
        pos += length
    cands = []
    for r, (start, end, value) in enumerate(runs):
        left_ok = r == 0 or runs[r - 1][2] < value
        right_ok = r == len(runs) - 1 or runs[r + 1][2] < value
        if left_ok and right_ok and value >= threshold:
            cands.append(start)
    return cands


def oracle_detect(x, threshold, min_distance):
    """Exhaustive suppression: among all maximal valid candidate subsets,
    pick the one whose (-amplitude, index) key sequence is lexicographically
    smallest. Returns sorted sample indices."""
    cands = oracle_candidates(x, threshold)
    m = len(cands)
    assert m <= 20, "oracle is exponential; keep candidate counts small"

    def valid(subset):
        return all(
            abs(a - b) >= min_distance for i, a in enumerate(subset) for b in subset[i + 1 :]
        )

    best_key = None
    best = None
    for mask in range(1 << m):
        subset = [cands[i] for i in range(m) if mask >> i & 1]
        if not valid(subset):
            continue
        # maximality: no remaining candidate could still be added
        if any(
            c not in subset and valid(subset + [c])
            for c in cands
        ):
            continue
        key = tuple(sorted((-x[i], i) for i in subset))
        if best_key is None or key < best_key:
            best_key, best = key, subset
    return sorted(best) if best is not None else []


def oracle_max_matching(truth_times, det_times, tolerance):
    """Maximum-cardinality matching between truths and detections."""

    def rec(i, used):
        if i == len(truth_times):
            return 0
        best = rec(i + 1, used)
        for j, d in enumerate(det_times):
            if j not in used and abs(d - truth_times[i]) <= tolerance:
                best = max(best, 1 + rec(i + 1, used | {j}))
        return best

    return rec(0, frozenset())


def brute_greedy_detect(x, threshold, min_distance):
    """Greedy suppression checking every kept peak: candidates in descending
    amplitude (ties to the earlier index), each kept only if it is at least
    ``min_distance`` samples from all peaks kept so far. O(n^2)."""
    accepted = []
    for i in sorted(oracle_candidates(x, threshold), key=lambda i: (-x[i], i)):
        if all(abs(i - j) >= min_distance for j in accepted):
            accepted.append(i)
    return sorted(accepted)


def brute_greedy_match(truth_times, det_times, tolerance):
    """Truths in order, each paired with the nearest unpaired detection within
    ``tolerance`` (ties to the earlier one), checking every detection."""
    used = set()
    pairs = []
    for tt in truth_times:
        near = [
            (abs(d - tt), d, j)
            for j, d in enumerate(det_times)
            if j not in used and abs(d - tt) <= tolerance
        ]
        if near:
            _, d, j = min(near)
            used.add(j)
            pairs.append((tt, d))
    return pairs


def brute_decode(peak_times, delay, t_on, t_sym, n_bits, window):
    """Bit i is 1 iff any peak lies within ``window`` of its frame's nominal
    peak, checking every peak for every bit."""
    return [
        int(any(abs(t - (delay + i * t_sym + t_on / 2)) <= window for t in peak_times))
        for i in range(n_bits)
    ]


def brute_echo_passes(event, params):
    """(centre, amplitude, sigma) of one event's passes, one pass at a time:
    pass k has amplitude ``dose * pass_decay**k`` and the passes end before
    the first below ``echo_cutoff * dose``, or after the first if
    ``pass_decay`` is 0."""
    start, duration, dose = event
    velocity = (params.flow_rate * 1e-3 / 60.0) / (math.pi * params.tube_diameter**2 / 4.0)
    passes = []
    k = 0
    while True:
        amp = dose * params.pass_decay**k
        if amp < params.echo_cutoff * dose:
            return passes
        center = start + duration / 2 + (params.distance_to_sensor + k * params.loop_length) / velocity
        sigma = params.initial_spread + params.dispersion_coeff * math.sqrt(center - start)
        passes.append((center, amp, sigma))
        if params.pass_decay == 0:
            return passes
        k += 1


def brute_spikes(clean, params):
    """``clean`` with the spikes of a noise-free channel added one at a time,
    then clipped at 0: a Poisson count (unit exponential gaps below
    ``spike_rate * n * dt``), then per spike a bin draw and an amplitude
    draw, all from the PCG64 stream of ``params.rng_seed``."""
    rng = np.random.Generator(np.random.PCG64(params.rng_seed))
    n = len(clean)
    lam = params.spike_rate * n * params.sample_interval
    count, arrival = 0, -math.log(1.0 - rng.random())
    while arrival < lam:
        count += 1
        arrival += -math.log(1.0 - rng.random())
    x = np.array(clean, dtype=float)
    for _ in range(count):
        b = min(int(rng.random() * n), n - 1)
        x[b] += params.spike_amplitude_max * (1.0 - rng.random())
    return np.maximum(x, 0.0)


def full_axis_signal(passes, times):
    """Sum of (centre, amplitude, sigma) Gaussians, each over every sample, in order."""
    x = np.zeros(len(times))
    for center, amp, sigma in passes:
        x += amp * np.exp(-((times - center) ** 2) / (2.0 * sigma**2))
    return x


def per_row_csv(header, row_format, rows):
    """CSV text made one ``str.format`` call per row, as the row-at-a-time
    writer made it: the header line, then ``row_format`` and LF per row."""
    return ",".join(header) + "\n" + "".join(row_format.format(*row) + "\n" for row in rows)


def per_row_trace_csv(samples, sample_interval, t0):
    """Trace CSV text: bin start ``t0 + k*dt`` with 6 decimals and the
    amplitude with 9 significant digits, one row at a time."""
    rows = ((t0 + k * sample_interval, float(x)) for k, x in enumerate(samples))
    return per_row_csv(["time_s", "amplitude"], "{:.6f},{:.9g}", rows)


def uncertain_times(times):
    """How many ``times`` the trace writer leaves to Python's %.6f: those with
    the sign bit set, -0.0 included, those that round to 100,000 s or more, and
    those whose microseconds lie within 2**-48 (relative) of a rounding midpoint."""
    count = 0
    for t in map(float, times):
        s = min(t, 1e5) * 1e6
        count += (math.copysign(1.0, t) < 0 or round(s) >= 10**11
                  or not 0.5 - abs(s - round(s)) > s * 2.0**-48)
    return count


def uncertain_values(samples):
    """How many ``samples`` the trace writer leaves to Python's %.9g: all but
    +0.0 and the values in [0, 10) whose exact decimal exponent is in -4..0,
    where %g prints fixed notation, and whose nine digits before the point
    neither round up to ten digits nor lie within 2**-48 (relative) of a
    rounding midpoint. A negative, -0.0 and a value of 10 or more are all
    left to Python."""
    count = 0
    for x in map(float, samples):
        e = int(f"{x:.16e}".partition("e")[2])
        s = x * 10.0 ** (8 - e) if -4 <= e <= 0 else 0.0
        certain = 1e8 <= s < 999_999_999.5 and 0.5 - abs(s - round(s)) > s * 2.0**-48
        count += not (x == 0 and math.copysign(1.0, x) > 0 or certain)
    return count


def csv_reader_table(text, header, path):
    """The (rows, columns) array that ``csv.reader`` rows of ``text`` hold,
    checked one row and cell at a time; a bad row raises FormatError, with
    ``path`` named in the message as the library names its file."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        raise FormatError(f"{path}: file is empty, expected header {','.join(header)}")
    found = [c.strip() for c in rows[0]]
    if found != header:
        raise FormatError(f"{path}: bad header {','.join(found)!r}, expected {','.join(header)!r}")
    table = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise FormatError(f"{path}: row {i}: expected {len(header)} columns, got {len(row)}")
        for column, value in zip(header, row):
            try:
                number = float(value)
            except ValueError:
                raise FormatError(
                    f"{path}: row {i}, column {column!r}: cannot parse {value!r} as a number"
                ) from None
            if not math.isfinite(number):
                raise FormatError(f"{path}: row {i}, column {column!r}: {value!r} is not finite")
            table.append(number)
    return np.array(table, dtype=float).reshape(len(rows) - 1, len(header))


def loop_validate_bits(bits):
    """``bits`` as a list of ints, checked one at a time: the first element equal
    to neither 0 nor 1 raises, naming its index and repr."""
    out = []
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValidationError(f"bit {i} is {b!r}; bits must be 0 or 1")
        out.append(int(b))
    return out


def loop_parse_bits(text, source):
    """The bits of a 0/1 string, one character at a time; errors name ``source``."""
    bad = set(text) - {"0", "1"}
    if bad:
        raise ValidationError(f"{source}: invalid bit characters {sorted(bad)!r}")
    return [int(c) for c in text]


def loop_bit_line(bits):
    """The text of a bit file: each checked bit's character, then LF."""
    return "".join(str(b) for b in loop_validate_bits(bits)) + "\n"


def loop_encode_events(bits, t_on, t_sym, dose):
    """(start, duration, dose) of each 1-bit's injection, one bit at a time."""
    return [(i * t_sym, float(t_on), float(dose)) for i, b in enumerate(loop_validate_bits(bits)) if b]


def loop_schedule_events(events, total_span):
    """A schedule's (start, duration, dose) float triples, checked one event and
    then one neighbour pair at a time; the first failed check raises."""
    events = [tuple(map(float, e)) for e in events]
    for start, duration, dose in events:
        if not all(map(math.isfinite, (start, duration, dose))):
            raise ValidationError("event start, duration and dose must be finite")
        if not dose > 0:
            raise ValidationError("event dose must be positive")
        if not duration > 0:
            raise ValidationError("event duration must be positive")
    for (p_start, p_duration, _), (c_start, _, _) in zip(events, events[1:]):
        if not c_start > p_start:
            raise ValidationError("events must be sorted strictly ascending by start")
        if p_start + p_duration > c_start + 1e-12:
            raise ValidationError("events must not overlap")
    if total_span < 0:
        raise ValidationError("total_span must be non-negative")
    return events


def loop_peaks(pairs):
    """A peak set's (time, amplitude) float pairs, checked one peak and then one
    neighbour pair at a time."""
    peaks = [(float(t), float(a)) for t, a in pairs]
    for peak in peaks:
        if not all(map(math.isfinite, peak)):
            raise ValidationError("peak times and amplitudes must be finite")
    for prev, cur in zip(peaks, peaks[1:]):
        if not cur[0] > prev[0]:
            raise ValidationError("peak times must be strictly ascending")
    return peaks


def loop_match(truth_events, det_times, tolerance):
    """(tp, fp, fn, pairs) of greedy matching, one truth midpoint at a time, each
    searching the detections in its +-2*tolerance range found by bisection."""
    if not tolerance > 0:
        raise ValidationError("tolerance must be positive")
    truth_times = [start + duration / 2 for start, duration, _ in truth_events]
    matched = [False] * len(det_times)
    pairs = []
    for tt in truth_times:
        best = None
        best_key = None
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
    return tp, len(det_times) - tp, len(truth_times) - tp, tuple(pairs)


# the keys that a config layer's payload key discards from the layers before it
PAYLOAD_DISCARDS = {"bits.length": {"bits.value"}, "bits.value": {"bits.length", "bits.seed"}}


def fold_layers(layers):
    """The merged key=value dict of ``layers``, earliest first, one key at a time: a
    key takes its value from the last layer that sets it, and is dropped if a later
    layer sets a payload key that discards it."""
    merged = {}
    for key in {key for layer in layers for key in layer}:
        last = max(i for i, layer in enumerate(layers) if key in layer)
        later_keys = set().union(*layers[last + 1:])
        if not any(key in PAYLOAD_DISCARDS.get(k, ()) for k in later_keys):
            merged[key] = layers[last][key]
    return merged
