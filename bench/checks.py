"""Output checks for the benchmark, computed apart from bubblelink.

Nothing here imports bubblelink. Output files are parsed as text, settings
are read from the preset file with a parser of its own, and every property
is recomputed from its documented definition, so a fault in the program
cannot hide behind a helper shared with it. Each check raises ``CheckError``
naming the file and the first offending row or value.

Comparisons on printed numbers follow the file formats: times carry 6
decimals and amplitudes 9 significant digits. Checks that recompute a value
allow for that rounding; checks that compare printed values with each other
use exact equality, because rounding to fixed precision is monotone.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

BRANCHES = ("raw", "maf", "kalman")
TREE_FILES = (
    "bits_sent.txt",
    "schedule.csv",
    "comparison.csv",
    *(f"{b}_{kind}" for b in BRANCHES for kind in ("trace.csv", "peaks.csv", "bits.txt", "report.csv")),
)
# Slack for values recovered from 6-decimal times: boundary cases closer than
# this to a tolerance or window edge are treated as undecided.
TIME_SLACK = 1e-5
# Absolute slack for a filter recomputed from 9-significant-digit inputs.
FILTER_SLACK = 2e-8


class CheckError(AssertionError):
    """An output of the program contradicts an independent computation."""


def _fail(msg: str) -> None:
    raise CheckError(msg)


# --------------------------------------------------------------------------
# settings


@dataclass(frozen=True)
class Settings:
    """The experiment settings the checks need, read from key=value text."""

    t_on: float
    t_off: float
    dose: float
    preamble: int
    flow_rate: float
    tube_diameter: float
    distance_to_sensor: float
    loop_length: float
    dispersion_coeff: float
    initial_spread: float
    pass_decay: float
    echo_cutoff: float
    noise_std: float
    sample_interval: float
    maf_window: int
    kalman: tuple[float, float, float, float]  # q, r, x0, p0
    thresholds: dict
    min_distance: int
    tolerance: float
    payload: str | None  # bits.value, when the config gives one

    @property
    def t_sym(self) -> float:
        return self.t_on + self.t_off

    @property
    def decode_window(self) -> float:
        return min(self.tolerance, self.t_sym / 2)

    def transmitted(self, payload: str) -> str:
        """The bits sent: the preamble's 1-bits, then ``payload``."""
        return "1" * self.preamble + payload

    @property
    def velocity(self) -> float:
        """Mean flow velocity in m/s: L/min through a circular tube."""
        return (self.flow_rate * 1e-3 / 60.0) / (math.pi * self.tube_diameter**2 / 4.0)

    @property
    def transit(self) -> float:
        """Injection-to-sensor travel time of the mean flow, in seconds."""
        return self.distance_to_sensor / self.velocity


def parse_settings(text: str, overrides: dict | None = None) -> Settings:
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    values.update(overrides or {})
    f = lambda k: float(values[k])  # noqa: E731
    return Settings(
        t_on=f("timing.t_on"),
        t_off=f("timing.t_off"),
        dose=f("dose"),
        preamble=int(values["preamble"]),
        flow_rate=f("channel.flow_rate"),
        tube_diameter=f("channel.tube_diameter"),
        distance_to_sensor=f("channel.distance_to_sensor"),
        loop_length=f("channel.loop_length"),
        dispersion_coeff=f("channel.dispersion_coeff"),
        initial_spread=f("channel.initial_spread"),
        pass_decay=f("channel.pass_decay"),
        echo_cutoff=f("channel.echo_cutoff"),
        noise_std=f("channel.noise_std"),
        sample_interval=f("channel.sample_interval"),
        maf_window=int(values["maf.window"]),
        kalman=(f("kalman.q"), f("kalman.r"), f("kalman.x0"), f("kalman.p0")),
        thresholds={b: f(f"peak.threshold.{b}") for b in BRANCHES},
        min_distance=int(values["peak.min_distance"]),
        tolerance=f("tolerance"),
        payload=None if "bits.length" in values else values.get("bits.value"),
    )


def random_payload(length: int, seed: int) -> str:
    """The documented ``bits.length``/``bits.seed`` payload: PCG64 uniforms below 0.5."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return "".join("1" if u < 0.5 else "0" for u in rng.random(length))


# --------------------------------------------------------------------------
# parsing


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def read_csv(path: str, header: str) -> list[list[str]]:
    lines = read_text(path).split("\n")
    if lines[-1] != "":
        _fail(f"{path}: last line is not LF-terminated")
    if lines[0] != header:
        _fail(f"{path}: header {lines[0]!r}, expected {header!r}")
    return [line.split(",") for line in lines[1:-1]]


def read_key_values(path: str) -> dict[str, str]:
    rows = read_csv(path, "key,value")
    for i, row in enumerate(rows, start=2):
        if len(row) != 2:
            _fail(f"{path}: line {i} has {len(row)} fields, expected 2")
    return dict(rows)


def read_bit_file(path: str) -> str:
    text = read_text(path)
    if not text.endswith("\n") or set(text[:-1]) - {"0", "1"}:
        _fail(f"{path}: expected one line of 0/1 characters")
    return text[:-1]


@dataclass(frozen=True)
class Series:
    """A two-column time/amplitude file, with amplitudes kept as printed."""

    times: list[str]
    printed: list[str]
    values: np.ndarray


def read_series(path: str) -> Series:
    rows = read_csv(path, "time_s,amplitude")
    for i, row in enumerate(rows, start=2):
        if len(row) != 2:
            _fail(f"{path}: row {i}: expected 2 columns")
    times = [r[0] for r in rows]
    printed = [r[1] for r in rows]
    return Series(times, printed, np.array([float(a) for a in printed]))


def tree_digest(out_dir: str) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(out_dir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


# --------------------------------------------------------------------------
# single properties


def check_time_axis(path: str, times: list[str], dt: float, n: int) -> None:
    if len(times) != n:
        _fail(f"{path}: {len(times)} samples, expected {n}")
    for i, t in enumerate(times):
        if t != f"{i * dt:.6f}":
            _fail(f"{path}: row {i + 2}: time {t}, expected {i * dt:.6f}")


def expected_samples(starts: list[float], s: Settings, span: float) -> int:
    """Trace length: the schedule span extended 4 sigma past each last echo."""
    for start in starts:
        center, _, sigma = echo_passes(start, s)[-1]
        span = max(span, center + 4.0 * sigma)
    return max(1, math.ceil(span / s.sample_interval - 1e-9))


def check_schedule(path: str, bits: str, s: Settings) -> list[float]:
    """Framed OOK: one injection of t_on at the start of each 1-bit's frame."""
    rows = read_csv(path, "start_s,duration_s,dose")
    starts = [i * s.t_sym for i, b in enumerate(bits) if b == "1"]
    if len(rows) != len(starts):
        _fail(f"{path}: {len(rows)} events for {len(starts)} one-bits")
    for row, start in zip(rows, starts):
        want = [f"{start:.6f}", f"{s.t_on:.6f}", f"{s.dose:.9g}"]
        if row != want:
            _fail(f"{path}: event {row}, expected {want}")
    return starts


def check_maf(path: str, raw: np.ndarray, maf: np.ndarray, window: int) -> None:
    """Trailing mean over ``window`` samples, shrinking at the start."""
    c = np.concatenate([[0.0], np.cumsum(raw)])
    idx = np.arange(len(raw))
    lo = np.maximum(idx + 1 - window, 0)
    want = (c[idx + 1] - c[lo]) / (idx + 1 - lo)
    _compare(path, maf, want)


def check_kalman(path: str, raw: np.ndarray, out: np.ndarray, params) -> None:
    """Scalar random-walk Kalman recursion run sample by sample."""
    q, r, x, p = params
    want = np.empty(len(raw))
    for i, z in enumerate(raw.tolist()):
        p += q
        gain = p / (p + r)
        x += gain * (z - x)
        p *= 1.0 - gain
        want[i] = x
    _compare(path, out, want)


def _compare(path: str, got: np.ndarray, want: np.ndarray) -> None:
    if len(got) != len(want):
        _fail(f"{path}: {len(got)} samples, expected {len(want)}")
    bad = np.flatnonzero(np.abs(got - want) > FILTER_SLACK)
    if len(bad):
        i = bad[0]
        _fail(f"{path}: row {i + 2}: {got[i]!r}, independent value {want[i]!r}")


def peak_indices(path: str, rows: list[list[str]], trace: Series, dt: float) -> list[int]:
    """Map each peak row to its sample and require the printed amplitude there."""
    out = []
    for k, (t, a) in enumerate(rows, start=2):
        i = round(float(t) / dt - 0.5)
        if not 0 <= i < len(trace.printed) or f"{(i + 0.5) * dt:.6f}" != t:
            _fail(f"{path}: row {k}: time {t} is not a bin centre of the trace")
        if trace.printed[i] != a:
            _fail(f"{path}: row {k}: amplitude {a}, trace has {trace.printed[i]} there")
        out.append(i)
    return out


def check_peaks(path: str, idx: list[int], x: np.ndarray, threshold: float, min_distance: int) -> None:
    """Local maxima at or above threshold, at least ``min_distance`` bins apart."""
    for k, i in enumerate(idx):
        left = x[i - 1] if i > 0 else -math.inf
        right = x[i + 1] if i + 1 < len(x) else -math.inf
        if not (left <= x[i] >= right):
            _fail(f"{path}: peak at sample {i} is not a local maximum")
        if not x[i] >= float(f"{threshold:.9g}"):
            _fail(f"{path}: peak at sample {i} ({x[i]}) is below the threshold {threshold}")
        if k and i - idx[k - 1] < min_distance:
            _fail(f"{path}: peaks at samples {idx[k - 1]} and {i} are closer than {min_distance}")


def max_matching(truth: list[float], detected: list[float], tol: float) -> int:
    """Size of a maximum matching with |detected - truth| <= tol.

    Both lists sorted; matching each truth to the earliest detection still
    reachable is optimal for this interval structure.
    """
    j = count = 0
    for t in truth:
        while j < len(detected) and detected[j] < t - tol:
            j += 1
        if j < len(detected) and detected[j] <= t + tol:
            count += 1
            j += 1
    return count


def check_report(path: str, rep: dict, ones: int, n_peaks: int, n_bits: int) -> tuple[int, int, int]:
    """The BER/BSR table identities of a branch report."""
    tp, fp, fn = (int(rep[k]) for k in ("tp", "fp", "fn"))
    if tp + fn != ones:
        _fail(f"{path}: tp+fn = {tp + fn}, but {ones} one-bits were sent")
    if tp + fp != n_peaks:
        _fail(f"{path}: tp+fp = {tp + fp}, but {n_peaks} peaks were detected")
    if int(rep["peaks_total"]) != ones:
        _fail(f"{path}: peaks_total {rep['peaks_total']}, expected {ones}")
    ber = (fp + fn) / ones
    if rep["ber"] != f"{ber:.9g}":
        _fail(f"{path}: ber {rep['ber']}, expected {ber:.9g}")
    if abs(float(rep["bsr"]) - (1.0 - ber)) > 1e-8:
        _fail(f"{path}: bsr {rep['bsr']} is not 1 - ber")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / ones
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    for key, want in (("precision", precision), ("recall", recall), ("f1", f1)):
        if abs(float(rep[key]) - want) > 1e-8:
            _fail(f"{path}: {key} {rep[key]}, expected {want:.9g}")
    if int(rep["bits_sent"]) != n_bits:
        _fail(f"{path}: bits_sent {rep['bits_sent']}, expected {n_bits}")
    return tp, fp, fn


def check_match(path: str, tp: int, truth: list[float], detected: list[float], tol: float) -> None:
    """tp is at most a maximum matching, and at least half of one.

    The program's one-pass assignment is maximal, so it cannot fall below
    half of the maximum.
    """
    upper = max_matching(truth, detected, tol + TIME_SLACK)
    lower = max_matching(truth, detected, tol - TIME_SLACK)
    if tp > upper:
        _fail(f"{path}: tp {tp} exceeds the maximum matching {upper}")
    if 2 * tp < lower:
        _fail(f"{path}: tp {tp} is less than half the maximum matching {lower}")


def check_decode(path: str, bits: str, n_bits: int, peak_times: list[float], delay: float, s: Settings) -> None:
    """Bit i is 1 iff a peak lies within the window of its nominal time."""
    if len(bits) != n_bits:
        _fail(f"{path}: {len(bits)} bits decoded, {n_bits} sent")
    times = np.array(peak_times)
    for i, b in enumerate(bits):
        center = delay + i * s.t_sym + s.t_on / 2
        dist = np.abs(times - center).min() if len(times) else math.inf
        if dist <= s.decode_window - TIME_SLACK and b != "1":
            _fail(f"{path}: bit {i} is 0 but a peak lies {dist:.6f} s from its centre")
        if dist > s.decode_window + TIME_SLACK and b != "0":
            _fail(f"{path}: bit {i} is 1 but no peak lies within the window")


# --------------------------------------------------------------------------
# channel model


def echo_passes(start: float, s: Settings):
    """(centre, amplitude, sigma) of each retained pass of one injection."""
    duration, dose, velocity = s.t_on, s.dose, s.velocity
    out = []
    k = 0
    while dose * s.pass_decay**k >= s.echo_cutoff * dose:
        center = start + duration / 2 + (s.distance_to_sensor + k * s.loop_length) / velocity
        sigma = s.initial_spread + s.dispersion_coeff * math.sqrt(center - start)
        out.append((center, dose * s.pass_decay**k, sigma))
        if s.pass_decay == 0:
            break
        k += 1
    return out


def echo_model(starts: list[float], s: Settings, n: int) -> np.ndarray:
    """Noise-free sum of every echo Gaussian at the bin centres of n samples.

    Each Gaussian is evaluated within 40 sigma of its centre, beyond which
    it is below the smallest positive double.
    """
    dt = s.sample_interval
    x = np.zeros(n)
    for start in starts:
        for center, amp, sigma in echo_passes(start, s):
            lo = max(0, int((center - 40 * sigma) / dt))
            hi = min(n, int((center + 40 * sigma) / dt) + 2)
            t = (np.arange(lo, hi) + 0.5) * dt
            x[lo:hi] += amp * np.exp(-((t - center) ** 2) / (2.0 * sigma**2))
    return x


def check_superposition(samples: np.ndarray, starts: list[float], s: Settings, n_expected: int, rng, k: int = 256) -> None:
    """A noise-free trace equals the echo model at k random samples."""
    if len(samples) != n_expected:
        _fail(f"noise-free simulate: {len(samples)} samples, expected {n_expected}")
    model = echo_model(starts, s, n_expected)
    pick = rng.choice(n_expected, size=min(k, n_expected), replace=False)
    diff = np.abs(samples[pick] - model[pick])
    worst = int(np.argmax(diff))
    if diff[worst] > 1e-9 * max(1.0, abs(model[pick][worst])):
        i = pick[worst]
        _fail(f"noise-free simulate: sample {i} is {samples[i]!r}, echo model {model[i]!r}")


def check_noise_spread(path: str, raw: np.ndarray, model: np.ndarray, noise_std: float, rel_tol: float = 0.15) -> float:
    """Robust spread of trace minus model, where the model clears the 0 clamp.

    Uses 1.4826 * MAD over samples whose model value is at least five noise
    deviations, so clamping at zero is negligible and sparse spikes do not
    count. Returns the estimate.
    """
    mask = model >= 5 * noise_std
    if mask.sum() < 1000:
        _fail(f"{path}: only {int(mask.sum())} samples above the noise floor")
    resid = raw[mask] - model[mask]
    spread = 1.4826 * float(np.median(np.abs(resid - np.median(resid))))
    if abs(spread / noise_std - 1.0) > rel_tol:
        _fail(f"{path}: residual spread {spread:.4g} is not within {rel_tol:.0%} of noise_std {noise_std}")
    return spread


# --------------------------------------------------------------------------
# whole output trees


def check_tree(out_dir: str, s: Settings, bits: str, model_spread: bool = False) -> dict:
    """Check every file of one ``run_pipeline`` output tree.

    ``bits`` is the transmitted string, preamble included. Returns counts
    for the caller: samples per trace and tp/fp/fn per branch.
    """
    p = lambda name: os.path.join(out_dir, name)  # noqa: E731
    missing = [f for f in TREE_FILES if not os.path.exists(p(f))]
    if missing:
        _fail(f"{out_dir}: missing {missing}")
    if read_bit_file(p("bits_sent.txt")) != bits:
        _fail(f"{p('bits_sent.txt')}: differs from the transmitted bits")
    starts = check_schedule(p("schedule.csv"), bits, s)
    ones = len(starts)
    dt = s.sample_interval
    n = expected_samples(starts, s, len(bits) * s.t_sym)
    traces = {b: read_series(p(f"{b}_trace.csv")) for b in BRANCHES}
    for b, tr in traces.items():
        check_time_axis(p(f"{b}_trace.csv"), tr.times, dt, n)
    raw = traces["raw"].values
    check_maf(p("maf_trace.csv"), raw, traces["maf"].values, s.maf_window)
    check_kalman(p("kalman_trace.csv"), raw, traces["kalman"].values, s.kalman)
    if model_spread:
        check_noise_spread(p("raw_trace.csv"), raw, echo_model(starts, s, n), s.noise_std)

    truth = [t + s.transit + s.t_on / 2 for t in starts]
    counts = {"samples": n}
    comparison = read_csv(p("comparison.csv"), "branch,precision,recall,f1,ber,bsr")
    for b in BRANCHES:
        rows = read_csv(p(f"{b}_peaks.csv"), "time_s,amplitude")
        idx = peak_indices(p(f"{b}_peaks.csv"), rows, traces[b], dt)
        rep = read_key_values(p(f"{b}_report.csv"))
        if rep["threshold"] != f"{s.thresholds[b]:.9g}":
            _fail(f"{p(f'{b}_report.csv')}: threshold {rep['threshold']}, configured {s.thresholds[b]}")
        check_peaks(p(f"{b}_peaks.csv"), idx, traces[b].values, s.thresholds[b], s.min_distance)
        tp, fp, fn = check_report(p(f"{b}_report.csv"), rep, ones, len(rows), len(bits))
        times = [float(r[0]) for r in rows]
        check_match(p(f"{b}_report.csv"), tp, truth, times, s.tolerance)
        check_decode(p(f"{b}_bits.txt"), read_bit_file(p(f"{b}_bits.txt")), len(bits), times,
                     float(rep["decode_delay"]), s)
        want = [b] + [rep[k] for k in ("precision", "recall", "f1", "ber", "bsr")]
        if want not in comparison:
            _fail(f"{p('comparison.csv')}: no row {','.join(want)}")
        counts[b] = (tp, fp, fn)
    if len(comparison) != len(BRANCHES):
        _fail(f"{p('comparison.csv')}: {len(comparison)} rows, expected {len(BRANCHES)}")
    return counts


def check_replay(name: str, read_samples: np.ndarray, written: np.ndarray, bits: str,
                 peaks: dict, decoded: dict) -> None:
    """Lab replay: exact CSV round trip, and every branch recovers the bits.

    ``written`` holds the generator's samples as printed to the file;
    ``peaks`` maps branch to detected peak count, ``decoded`` to the
    decoded bit string.
    """
    if not np.array_equal(read_samples, written):
        bad = np.flatnonzero(read_samples != written) if len(read_samples) == len(written) else [len(written)]
        _fail(f"{name}: read_trace sample {bad[0]} differs from the recorded value")
    ones = bits.count("1")
    for b in peaks:
        if peaks[b] != ones:
            _fail(f"{name}: {b} detected {peaks[b]} peaks for {ones} one-bits")
        if decoded[b] != bits:
            first = next((i for i, (x, y) in enumerate(zip(decoded[b], bits)) if x != y), len(bits))
            _fail(f"{name}: {b} decoded bit {first} wrong")
