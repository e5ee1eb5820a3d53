"""The benchmark's workloads: what one operation is, and how it is checked.

Every call into bubblelink goes through a module attribute (``pipeline.
run_pipeline``, ``dsp.detect_peaks``, ...) so that the tracer's wrappers see
it. Inputs come only from the workload seed.

* sweep-paper: ``run_pipeline`` on the paper-like preset over eight
  ``channel.rng_seed`` values, each tree written to a fresh directory.
* long-record: ``run_pipeline`` on one 1,000-bit payload (~58k samples).
* lab-replay: offline analysis of generated recordings read from CSV; no
  channel code runs.
"""

from __future__ import annotations

import dataclasses
import os
import random

import numpy as np

import checks
import replaygen
from bubblelink import channel, config, dsp, metrics, modem, pipeline, trace_io

PRESET = "paper-like"


def preset_settings(overrides: dict | None = None) -> checks.Settings:
    return checks.parse_settings(config.preset_text(PRESET), overrides)


class PipelineWorkload:
    """Operations are ``run_pipeline`` calls, one per config override set.

    The first tree of each config is checked file by file; every later tree
    of the same config must have the same digest, which also shows that a
    run is reproducible byte for byte.
    """

    overrides: list[dict]
    payloads: list[str]  # transmitted bits per config, preamble included
    model_spread = False

    def configure(self) -> None:
        self.cfgs = [config.load_config(preset=PRESET, overrides=o) for o in self.overrides]
        self.settings = [preset_settings(o) for o in self.overrides]
        self.digests: dict[int, str] = {}

    def round(self) -> list[int]:
        return list(range(len(self.cfgs)))

    def run(self, item: int, out_dir: str) -> int:
        results = pipeline.run_pipeline(self.cfgs[item], out_dir)
        return len(results["raw"].trace)

    def bare_round(self) -> dict:
        return {"overrides": self.overrides}

    def check(self, item: int, out_dir: str) -> None:
        digest = checks.tree_digest(out_dir)
        if item not in self.digests:
            checks.check_tree(out_dir, self.settings[item], self.payloads[item], self.model_spread)
            self.digests[item] = digest
        elif digest != self.digests[item]:
            raise checks.CheckError(f"{out_dir}: config {item} gave a different tree on a repeat run")

    def final_check(self) -> None:
        pass


class SweepPaper(PipelineWorkload):
    name = "sweep-paper"
    warmup = 0

    def __init__(self, seed: int, scratch: str):
        channel_seeds = random.Random(seed).sample(range(1, 2**31), 8)
        self.overrides = [{"channel.rng_seed": str(s)} for s in channel_seeds]
        s = preset_settings()
        self.payloads = [s.transmitted(s.payload)] * len(self.overrides)
        self.seed = seed

    def final_check(self) -> None:
        """With noise and spikes off, simulate is the documented echo sum."""
        cfg, s = self.cfgs[0], self.settings[0]
        params = dataclasses.replace(cfg.channel, noise_std=0.0, spike_rate=0.0)
        trace = channel.simulate(modem.encode(cfg.bits, cfg.timing, cfg.dose), params)
        starts = [i * s.t_sym for i, b in enumerate(self.payloads[0]) if b == "1"]
        n = checks.expected_samples(starts, s, len(self.payloads[0]) * s.t_sym)
        checks.check_superposition(np.asarray(trace.samples), starts, s, n, np.random.default_rng(self.seed))


class LongRecord(PipelineWorkload):
    name = "long-record"
    warmup = None  # the fastest of ~16 repeats already leaves out a cold first one
    BITS = 1000
    model_spread = True

    def __init__(self, seed: int, scratch: str):
        self.overrides = [{"bits.length": str(self.BITS), "bits.seed": str(seed), "channel.rng_seed": str(seed)}]
        self.payloads = [preset_settings().transmitted(checks.random_payload(self.BITS, seed))]


class LabReplay:
    """Replay of recorded traces: read, filter, detect, match, decode, write.

    Recordings are generated at set-up by ``replaygen`` and are replayed in
    the same order every round, so each run sees the same mix of lengths.
    """

    name = "lab-replay"
    warmup = 0
    BIT_LENGTHS = (100, 100, 250, 500, 1000)  # ~6k to ~58k samples

    def __init__(self, seed: int, scratch: str):
        s = preset_settings()
        self.overrides = [{}]
        rng = random.Random(seed)
        self.recordings = []
        inputs = os.path.join(scratch, "recordings")
        os.makedirs(inputs)
        for i, n_bits in enumerate(self.BIT_LENGTHS):
            rec = replaygen.make_recording(rng.randrange(2**32), n_bits, s.t_on, s.t_off, s.sample_interval)
            paths = (os.path.join(inputs, f"rec{i}_trace.csv"), os.path.join(inputs, f"rec{i}_bits.txt"))
            replaygen.write_recording(rec, s.sample_interval, *paths)
            self.recordings.append((rec, paths))

    def configure(self) -> None:
        self.cfg = config.load_config(preset=PRESET)

    def round(self) -> list[int]:
        return list(range(len(self.recordings)))

    def run(self, item: int, out_dir: str) -> int:
        rec, paths = self.recordings[item]
        trace, branches = replay(self.cfg, *paths, rec.delay, out_dir)
        self.last = (np.asarray(trace.samples), branches)
        return len(trace)

    def bare_round(self) -> dict:
        return {"recordings": [[*paths, rec.delay] for rec, paths in self.recordings]}

    def check(self, item: int, out_dir: str) -> None:
        rec, _ = self.recordings[item]
        samples, branches = self.last
        name = f"recording {item} ({len(rec.bits)} bits)"
        checks.check_replay(name, samples, rec.printed, rec.bits,
                            {b: v[0] for b, v in branches.items()}, {b: v[1] for b, v in branches.items()})
        for b, (n_peaks, decoded, ber) in branches.items():
            if ber != 0.0:
                raise checks.CheckError(f"{name}: {b} reports BER {ber} with every bolus detected")
            if len(checks.read_csv(os.path.join(out_dir, f"{b}_peaks.csv"), "time_s,amplitude")) != n_peaks:
                raise checks.CheckError(f"{name}: {b}_peaks.csv does not hold the {n_peaks} detected peaks")
            if checks.read_bit_file(os.path.join(out_dir, f"{b}_bits.txt")) != decoded:
                raise checks.CheckError(f"{name}: {b}_bits.txt differs from the decoded bits")

    def final_check(self) -> None:
        pass


def replay(cfg, trace_path: str, bits_path: str, true_delay: float, out_dir: str):
    """Analyse one recording as a lab would; returns the trace and, per branch,
    the peak count, the decoded bits and the BER."""
    os.makedirs(out_dir)
    trace = trace_io.read_trace(trace_path)
    bits = trace_io.read_bits(bits_path)
    truth = modem.encode(bits, cfg.timing, cfg.dose).shifted(true_delay)
    branches = {}
    for name in ("raw", "maf", "kalman"):
        if name == "raw":
            filtered = trace
        elif name == "maf":
            filtered = dsp.moving_average(trace, cfg.maf)
        else:
            filtered = dsp.kalman_filter(trace, cfg.kalman or dsp.default_kalman_params(trace))
        threshold = cfg.peak_thresholds[name]
        if threshold is None:
            threshold = dsp.default_threshold(filtered)
        peaks = dsp.detect_peaks(filtered, dsp.PeakDetectParams(threshold, cfg.peak_min_distance))
        report = metrics.build_report(metrics.match_peaks(peaks, truth, cfg.tolerance), len(truth))
        delay = max(0.0, peaks.peaks[0].time - cfg.timing.t_on / 2) if len(peaks) else true_delay
        decoded = modem.decode(peaks, cfg.timing, delay, len(bits), cfg.decode_window)
        trace_io.write_peaks(peaks, os.path.join(out_dir, f"{name}_peaks.csv"))
        trace_io.write_bits(decoded, os.path.join(out_dir, f"{name}_bits.txt"))
        branches[name] = (len(peaks), "".join(map(str, decoded)), report.ber)
    return trace, branches


def run_bare_round(spec: dict, out_dir: str) -> None:
    """Run one round described by a workload's ``bare_round`` with no checks,
    so that a child interpreter's peak memory is the program's alone."""
    for i, overrides in enumerate(spec.get("overrides", [])):
        pipeline.run_pipeline(config.load_config(preset=PRESET, overrides=overrides), os.path.join(out_dir, f"op{i}"))
    cfg = config.load_config(preset=PRESET)
    for i, (trace_path, bits_path, delay) in enumerate(spec.get("recordings", [])):
        replay(cfg, trace_path, bits_path, delay, os.path.join(out_dir, f"op{i}"))


WORKLOADS = {w.name: w for w in (SweepPaper, LongRecord, LabReplay)}
