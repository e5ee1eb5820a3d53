"""End-to-end experiment runner: encode, simulate, filter, detect, evaluate.

One simulation feeds each detection branch of ``config.BRANCHES``, which is
filtered, peak-detected, aligned with the ground-truth schedule, scored and
decoded by ``run_experiment`` without touching disk. ``write_run`` writes the
plain CSV/text tree, reproducible byte for byte from the configuration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import dsp, metrics, trace_io
from .channel import simulate
from .config import BRANCHES, ExperimentConfig, detect_threshold
from .metrics import MatchResult, MetricsReport
from .modem import Bits, InjectionSchedule, decode, encode
from .signals import PeakSet, SensorTrace


@dataclass(frozen=True)
class BranchResult:
    trace: SensorTrace
    peaks: PeakSet
    match: MatchResult
    report: MetricsReport
    decoded: Bits
    decode_delay: float
    threshold: float
    warning: str | None


@dataclass(frozen=True)
class RunResult:
    bits: Bits
    schedule: InjectionSchedule
    branches: dict[str, BranchResult]  # in BRANCHES order


def _run_branch(
    name: str, trace: SensorTrace, truth: InjectionSchedule, transit: float, cfg: ExperimentConfig
) -> BranchResult:
    filtered = BRANCHES[name](trace, cfg)
    threshold = detect_threshold(cfg.peak_thresholds, name, filtered)
    detect_params = dsp.PeakDetectParams(threshold=threshold, min_distance=cfg.peak_min_distance)
    peaks = dsp.detect_peaks(filtered, detect_params)

    match = metrics.match_peaks(peaks, truth, cfg.tolerance)
    report = metrics.build_report(match, len(truth))

    # Receiver-side delay estimate from the mandatory leading 1-preamble:
    # the first detected peak is taken as the preamble bolus.
    warning = None
    if len(peaks) > 0:
        delay = float(peaks.table[0, 0]) - cfg.timing.t_on / 2
        if delay < 0:
            warning = "estimated delay was negative; clamped to 0"
            delay = 0.0
    else:
        delay = transit
        warning = "no peaks detected; preamble delay estimation failed, using model transit time"
    decoded = decode(peaks, cfg.timing, delay, len(cfg.bits), cfg.decode_window)
    return BranchResult(filtered, peaks, match, report, decoded, delay, threshold, warning)


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Encode, simulate and compute every branch; no file or directory is made."""
    schedule = encode(cfg.bits, cfg.timing, cfg.dose)
    trace = simulate(schedule, cfg.channel)

    # detected peaks lag the schedule by the bolus transit, so the truth is shifted before matching
    transit = cfg.channel.pass_delay(0)
    truth = schedule.shifted(transit)
    return RunResult(cfg.bits, schedule, {name: _run_branch(name, trace, truth, transit, cfg)
                                      for name in BRANCHES})


def run_pipeline(cfg: ExperimentConfig, out_dir: str | os.PathLike) -> dict[str, BranchResult]:
    """Compute every branch, then write the tree; a run that fails validation makes no file."""
    result = run_experiment(cfg)
    write_run(result, out_dir)
    return result.branches


def write_run(result: RunResult, out_dir: str | os.PathLike) -> None:
    """Write the output tree of one run to ``out_dir``, making the directory if needed."""
    os.makedirs(out_dir, exist_ok=True)
    trace_io.write_bits(result.bits, os.path.join(out_dir, "bits_sent.txt"))
    trace_io.write_schedule(result.schedule, os.path.join(out_dir, "schedule.csv"))
    trace_io.write_traces({os.path.join(out_dir, f"{name}_trace.csv"): res.trace
                           for name, res in result.branches.items()})
    for name, res in result.branches.items():
        trace_io.write_peaks(res.peaks, os.path.join(out_dir, f"{name}_peaks.csv"))
        trace_io.write_bits(res.decoded, os.path.join(out_dir, f"{name}_bits.txt"))
        m = res.match
        extra = [
            ("bits_sent", len(result.bits)),
            # secondary variant over all transmitted bits, not just 1-bits
            ("ber_over_bits_sent", (m.fp + m.fn) / len(result.bits)),
            ("threshold", res.threshold),
            ("decode_delay", res.decode_delay),
            ("warning", res.warning or ""),
        ]
        with open(os.path.join(out_dir, f"{name}_report.csv"), "w", encoding="utf-8", newline="") as fh:
            trace_io.write_report(fh, m, res.report, extra)
    trace_io.write_comparison({name: res.report for name, res in result.branches.items()},
                              os.path.join(out_dir, "comparison.csv"))
