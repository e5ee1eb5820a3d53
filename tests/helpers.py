"""Independent brute-force oracles used by the unit and acceptance tests.

These deliberately share no code with the library: plateau scanning,
suppression, and matching are re-derived from their definitions so the
library implementations are checked against a second, exhaustive path.
"""

from itertools import groupby

import numpy as np


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
