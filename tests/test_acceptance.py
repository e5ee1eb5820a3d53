"""Acceptance suite: one test per criterion, each printing PASS/FAIL."""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from helpers import (
    brute_maf,
    kalman_variance_fixed_point,
    oracle_detect,
    oracle_max_matching,
    peaks_at,
)
from bubblelink.channel import mean_flow_velocity
from bubblelink.config import load_config
from bubblelink.dsp import (
    KalmanParams,
    MafParams,
    PeakDetectParams,
    detect_peaks,
    kalman_filter,
    moving_average,
    peak_candidates,
)
from bubblelink.metrics import bsr, match_peaks
from bubblelink.modem import (
    InjectionEvent,
    InjectionSchedule,
    TimingParams,
    duty_efficiency,
    effective_bit_rate,
    max_channel_bit_rate,
    raw_bit_rate,
    time_overhead,
    uniform_avg_bit_duration,
)
from bubblelink.pipeline import run_pipeline
from bubblelink.signals import SensorTrace


def report(criterion, description, failed=False):
    status = "FAIL" if failed else "PASS"
    print(f"\nACCEPTANCE {criterion}: {status} - {description}")


@pytest.fixture
def criterion(request):
    marker = request.node.get_closest_marker("criterion")
    num, description = marker.args
    failed = True
    try:
        yield
        failed = False
    finally:
        report(num, description, failed)


pytestmark = pytest.mark.usefixtures("criterion")


@pytest.mark.criterion(1, "closed-form rate/overhead formulas at the 0.3 s / 2.0 s timing")
def test_rate_formulas():
    t = TimingParams(0.3, 2.0)
    assert raw_bit_rate(t) == pytest.approx(0.434783, abs=1e-6)
    assert effective_bit_rate(t) == pytest.approx(0.869565, abs=1e-6)
    assert time_overhead(t) == pytest.approx(0.869565, abs=1e-6)
    assert uniform_avg_bit_duration(t) == 1.15
    assert duty_efficiency(t) == pytest.approx(0.260870, abs=1e-6)


@pytest.mark.criterion(2, "bit-rate ceiling from three 40 ms sensor intervals")
def test_channel_ceiling():
    assert max_channel_bit_rate(0.040, 3) == pytest.approx(8.3333, abs=1e-3)


@pytest.mark.criterion(3, "mean flow velocity vs independent arithmetic oracle")
def test_flow_derivation():
    q = 1.24e-3 / 60.0
    area = math.pi * (0.009525 / 2) ** 2
    assert mean_flow_velocity(1.24, 0.009525) == pytest.approx(q / area, abs=1e-12)
    assert mean_flow_velocity(1.24, 0.009525) == pytest.approx(0.2901, abs=5e-4)


@pytest.mark.criterion(4, "BER/BSR complement identity at the published table values")
def test_table_consistency():
    for b, s in [(0.7679, 0.2321), (0.1393, 0.8607), (0.1179, 0.8821)]:
        assert bsr(b) == pytest.approx(s, abs=1e-4)


@pytest.mark.criterion(5, "noiseless 64+1-bit round trip: BER 0 on all three branches")
def test_noiseless_round_trip(tmp_path):
    start = time.monotonic()
    cfg = load_config(
        preset="paper-like",
        overrides={
            "channel.noise_std": "0",
            "channel.spike_rate": "0",
            "bits.length": "64",
            "bits.seed": "7",
        },
    )
    results = run_pipeline(cfg, tmp_path / "run")
    assert len(cfg.bits) == 65
    for name in ("raw", "maf", "kalman"):
        res = results[name]
        assert res.report.ber == 0.0, name
        assert res.decoded == cfg.bits, name
    assert time.monotonic() - start < 5.0


@pytest.mark.criterion(6, "calibrated preset: raw BER > 0.5 and far above both filtered branches")
def test_calibrated_ordering(tmp_path):
    start = time.monotonic()
    cfg = load_config(preset="paper-like")
    assert sum(cfg.bits) == 50  # 50 transmitted 1-bits, preamble included
    results = run_pipeline(cfg, tmp_path / "run")
    ber_raw = results["raw"].report.ber
    ber_kf = results["kalman"].report.ber
    ber_maf = results["maf"].report.ber
    assert ber_raw > 0.5
    assert ber_kf <= 0.2
    assert ber_maf <= 0.2
    assert ber_raw > max(ber_kf, ber_maf)
    assert time.monotonic() - start < 30.0


@pytest.mark.criterion(7, "MAF exact vs brute force; KF hand recursion and variance fixed point")
def test_filter_oracles():
    rng = np.random.Generator(np.random.PCG64(71))
    for _ in range(100):
        n = int(rng.integers(1, 10_001))
        w = int(rng.integers(1, 128))
        x = rng.random(n) * 5
        out = moving_average(SensorTrace(0.04, 0.0, x), MafParams(w)).samples
        assert np.array_equal(out, brute_maf(x, w))

    out = kalman_filter(
        SensorTrace(0.04, 0.0, np.array([1.0, 1.0])),
        KalmanParams(q=1.0, r=1.0, x0=0.0, p0=1.0),
    ).samples
    assert out == pytest.approx([0.666667, 0.875], abs=1e-6)
    assert out == pytest.approx([2 / 3, 21 / 24], abs=1e-9)

    q, r = 1.0, 1.0
    p = 1.0
    for _ in range(1000):
        p_pred = p + q
        p = (1 - p_pred / (p_pred + r)) * p_pred
    p_star = kalman_variance_fixed_point(q, r)
    assert abs(p - p_star) <= 1e-9
    assert abs(p_star - (p_star + q) * r / (p_star + q + r)) <= 1e-9


@pytest.mark.criterion(8, "peak detection and matching vs exhaustive oracles")
def test_peak_and_matching_oracles():
    rng = np.random.Generator(np.random.PCG64(81))
    checked = 0
    while checked < 200:
        n = int(rng.integers(3, 31))
        x = rng.integers(0, 6, n).astype(float)
        threshold = float(rng.integers(1, 5))
        min_distance = int(rng.integers(1, 8))
        if len(peak_candidates(x, threshold)) > 14:
            continue  # keep the exponential oracle tractable
        got = detect_peaks(SensorTrace(0.04, 0.0, x), PeakDetectParams(threshold, min_distance))
        got_idx = [round(p.time / 0.04 - 0.5) for p in got.peaks]
        assert got_idx == oracle_detect(x, threshold, min_distance)
        checked += 1

    tolerance = 1.0
    for _ in range(200):
        n_truth = int(rng.integers(1, 9))
        gaps = rng.uniform(2 * tolerance, 5 * tolerance, n_truth)
        truths = list(np.cumsum(gaps) + 1.0)
        events = tuple(InjectionEvent(t - 0.1, 0.2, 1.0) for t in truths)
        schedule = InjectionSchedule(events, truths[-1] + 0.1)
        dets = sorted(set(float(d) for d in rng.uniform(0, truths[-1] + 2, int(rng.integers(0, 10)))))
        m = match_peaks(peaks_at(dets), schedule, tolerance)
        assert m.tp == oracle_max_matching(truths, dets, tolerance)


@pytest.mark.criterion(9, "pipeline determinism: identical configs give byte-identical outputs")
def test_pipeline_determinism(tmp_path):
    from bubblelink.cli import main

    args = ["pipeline", "--preset", "paper-like"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    files = sorted(os.listdir(a))
    assert files == sorted(os.listdir(b))
    for f in files:
        assert filecmp.cmp(a / f, b / f, shallow=False), f

    c = tmp_path / "c"
    assert main(args + ["--set", "channel.rng_seed=7", "--out-dir", str(c)]) == 0
    assert not filecmp.cmp(a / "raw_trace.csv", c / "raw_trace.csv", shallow=False)
