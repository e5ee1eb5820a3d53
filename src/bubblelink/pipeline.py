"""End-to-end experiment runner: encode, simulate, filter, detect, evaluate.

One simulation feeds three detection branches (raw trace, moving-average
filtered, Kalman filtered); each branch is peak-detected, aligned with the
ground-truth schedule, scored, and decoded. All outputs are plain CSV/text
files, reproducible byte for byte from the configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import dsp, metrics, trace_io
from .channel import mean_flow_velocity, simulate
from .config import BRANCHES, ExperimentConfig
from .metrics import MatchResult, MetricsReport
from .modem import Bits, InjectionSchedule, decode, encode
from .signals import PeakSet, SensorTrace


@dataclass(frozen=True)
class BranchResult:
    name: str
    trace: SensorTrace
    peaks: PeakSet
    match: MatchResult
    report: MetricsReport
    decoded: Bits
    decode_delay: float
    threshold: float
    warning: str | None


def _filter_branch(name: str, trace: SensorTrace, cfg: ExperimentConfig) -> SensorTrace:
    if name == "raw":
        return trace
    if name == "maf":
        return dsp.moving_average(trace, cfg.maf)
    params = cfg.kalman if cfg.kalman is not None else dsp.default_kalman_params(trace)
    return dsp.kalman_filter(trace, params)


def _run_branch(
    name: str, trace: SensorTrace, truth: InjectionSchedule, transit: float, cfg: ExperimentConfig
) -> BranchResult:
    filtered = _filter_branch(name, trace, cfg)
    threshold = cfg.peak_thresholds.get(name)
    if threshold is None:
        threshold = dsp.default_threshold(filtered)
    detect_params = dsp.PeakDetectParams(threshold=threshold, min_distance=cfg.peak_min_distance)
    peaks = dsp.detect_peaks(filtered, detect_params)

    match = metrics.match_peaks(peaks, truth, cfg.tolerance)
    report = metrics.build_report(match, len(truth))

    # Receiver-side delay estimate from the mandatory leading 1-preamble:
    # the first detected peak is taken as the preamble bolus.
    warning = None
    if len(peaks) > 0:
        delay = peaks.peaks[0].time - cfg.timing.t_on / 2
        if delay < 0:
            warning = "estimated delay was negative; clamped to 0"
            delay = 0.0
    else:
        delay = transit
        warning = "no peaks detected; preamble delay estimation failed, using model transit time"
    decoded = decode(peaks, cfg.timing, delay, len(cfg.bits), cfg.decode_window)
    return BranchResult(name, filtered, peaks, match, report, decoded, delay, threshold, warning)


def run_pipeline(cfg: ExperimentConfig, out_dir: str | os.PathLike) -> dict[str, BranchResult]:
    """Compute every branch, then write the whole output tree to ``out_dir``.

    A run that fails validation raises before any file or directory is made.
    """
    bits = cfg.bits
    schedule = encode(bits, cfg.timing, cfg.dose)
    trace = simulate(schedule, cfg.channel)

    # Bolus transit time from injection point to sensor; detected peaks lag the
    # schedule by this much, so the truth is shifted before matching.
    velocity = mean_flow_velocity(cfg.channel.flow_rate, cfg.channel.tube_diameter)
    transit = cfg.channel.distance_to_sensor / velocity
    truth = schedule.shifted(transit)

    results = {name: _run_branch(name, trace, truth, transit, cfg) for name in BRANCHES}
    _write_tree(str(out_dir), bits, schedule, results)
    return results


def _write_tree(
    out_dir: str, bits: Bits, schedule: InjectionSchedule, results: dict[str, BranchResult]
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    trace_io.write_bits(bits, os.path.join(out_dir, "bits_sent.txt"))
    trace_io.write_schedule(schedule, os.path.join(out_dir, "schedule.csv"))
    for name, res in results.items():
        trace_io.write_trace(res.trace, os.path.join(out_dir, f"{name}_trace.csv"))
        trace_io.write_peaks(res.peaks, os.path.join(out_dir, f"{name}_peaks.csv"))
        trace_io.write_bits(res.decoded, os.path.join(out_dir, f"{name}_bits.txt"))
        m = res.match
        extra = [
            ("bits_sent", len(bits)),
            # secondary variant over all transmitted bits, not just 1-bits
            ("ber_over_bits_sent", f"{(m.fp + m.fn) / len(bits):.9g}"),
            ("threshold", f"{res.threshold:.9g}"),
            ("decode_delay", f"{res.decode_delay:.9g}"),
            ("warning", res.warning or ""),
        ]
        with open(os.path.join(out_dir, f"{name}_report.csv"), "w", encoding="utf-8", newline="") as fh:
            trace_io.write_report(fh, m, res.report, extra)
    _write_comparison(results, os.path.join(out_dir, "comparison.csv"))


def _write_comparison(results: dict[str, BranchResult], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("branch,precision,recall,f1,ber,bsr\n")
        for name in BRANCHES:
            r = results[name].report
            fh.write(
                f"{name},{r.precision:.9g},{r.recall:.9g},{r.f1:.9g},{r.ber:.9g},{r.bsr:.9g}\n"
            )
