"""Independent brute-force oracles used by the unit and acceptance tests.

These deliberately share no code with the library: plateau scanning,
suppression, matching, the Kalman recursion, echo passes, spike draws and
CSV reading are re-derived from their definitions so the library
implementations are checked against a second, exhaustive path. ``peaks_at``
is the one exception: it builds library peak sets as test input.
"""

import csv
import io
import math
from itertools import groupby

import numpy as np

from bubblelink.errors import FormatError
from bubblelink.signals import Peak, PeakSet


def peaks_at(times, amplitude=1.0):
    """A PeakSet with one peak of ``amplitude`` at each of the ascending ``times``."""
    return PeakSet(tuple(Peak(float(t), amplitude) for t in times))


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
