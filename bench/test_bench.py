"""Tests of the benchmark itself: each check must fail on a planted fault.

Run with ``python -m pytest bench``. A paper-like output tree is made once
with bubblelink; each test copies it, plants one fault, and shows that the
matching check raises ``CheckError`` while the clean tree passes.
"""

import itertools
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import replaygen
import tracer
import workloads
from bubblelink import channel, config, modem, pipeline

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def clean_tree(tmp_path_factory):
    out = tmp_path_factory.mktemp("paper") / "tree"
    pipeline.run_pipeline(config.load_config(preset="paper-like"), out)
    return out


@pytest.fixture
def tree(clean_tree, tmp_path):
    return Path(shutil.copytree(clean_tree, tmp_path / "tree"))


@pytest.fixture(scope="module")
def settings():
    return workloads.preset_settings()


def check(tree, settings):
    return checks.check_tree(str(tree), settings, settings.transmitted(settings.payload))


def rewrite_column(path, transform):
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    values = transform([r[1] for r in rows])
    path.write_text("\n".join([lines[0]] + [f"{r[0]},{v}" for r, v in zip(rows, values)]) + "\n")


def test_clean_tree_passes(tree, settings):
    counts = check(tree, settings)
    assert counts["samples"] == 6052
    assert checks.tree_digest(str(tree)) == checks.tree_digest(str(tree))


def test_maf_shifted_by_one_sample(tree, settings):
    rewrite_column(tree / "maf_trace.csv", lambda v: v[:1] + v[:-1])
    with pytest.raises(checks.CheckError, match="maf_trace.csv"):
        check(tree, settings)


def test_kalman_output_perturbed(tree, settings):
    rewrite_column(tree / "kalman_trace.csv", lambda v: v[:100] + [f"{float(v[100]) + 1e-6:.9g}"] + v[101:])
    with pytest.raises(checks.CheckError, match="kalman_trace.csv: row 102"):
        check(tree, settings)


def add_peak_row(tree, branch, index, settings):
    """Insert a peak at sample ``index`` of a branch, keeping rows sorted."""
    trace = checks.read_series(str(tree / f"{branch}_trace.csv"))
    dt = settings.sample_interval
    path = tree / f"{branch}_peaks.csv"
    lines = path.read_text().splitlines()
    lines.append(f"{(index + 0.5) * dt:.6f},{trace.printed[index]}")
    path.write_text("\n".join([lines[0]] + sorted(lines[1:], key=lambda r: float(r.split(",")[0]))) + "\n")


def test_peak_below_threshold(tree, settings):
    x = checks.read_series(str(tree / "raw_trace.csv")).values
    peaks = [round(float(r[0]) / settings.sample_interval - 0.5)
             for r in checks.read_csv(str(tree / "raw_peaks.csv"), "time_s,amplitude")]
    below = next(i for i in range(1, len(x) - 1)
                 if x[i - 1] < x[i] > x[i + 1] and 0.1 < x[i] < settings.thresholds["raw"]
                 and min(abs(i - p) for p in peaks) >= settings.min_distance)
    add_peak_row(tree, "raw", below, settings)
    with pytest.raises(checks.CheckError, match="below the threshold"):
        check(tree, settings)


def test_peak_not_a_local_maximum(tree, settings):
    path = tree / "maf_peaks.csv"
    rows = checks.read_csv(str(path), "time_s,amplitude")
    i = round(float(rows[0][0]) / settings.sample_interval - 0.5) + 1
    printed = checks.read_series(str(tree / "maf_trace.csv")).printed
    rows[0] = [f"{(i + 0.5) * settings.sample_interval:.6f}", printed[i]]
    path.write_text("time_s,amplitude\n" + "".join(f"{t},{a}\n" for t, a in rows))
    with pytest.raises(checks.CheckError, match="not a local maximum"):
        check(tree, settings)


def test_peaks_closer_than_min_distance():
    x = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
    checks.check_peaks("p", [1, 4, 7], x, 0.5, 3)
    with pytest.raises(checks.CheckError, match="closer than"):
        checks.check_peaks("p", [1, 4, 7], x, 0.5, 4)


@pytest.mark.parametrize("key,delta,match", [
    ("fp", 1, "tp\\+fp"),
    ("fn", 1, "tp\\+fn"),
])
def test_wrong_report_count(tree, settings, key, delta, match):
    path = tree / "raw_report.csv"
    rep = checks.read_key_values(str(path))
    text = path.read_text().replace(f"\n{key},{rep[key]}\n", f"\n{key},{int(rep[key]) + delta}\n")
    path.write_text(text)
    with pytest.raises(checks.CheckError, match=match):
        check(tree, settings)


def test_report_row_with_extra_field(tree, settings):
    path = tree / "kalman_report.csv"
    path.write_text(path.read_text().replace("\nwarning,", "\nwarning,a, b"))
    with pytest.raises(checks.CheckError, match="3 fields, expected 2"):
        check(tree, settings)


def test_wrong_ber(tree, settings):
    path = tree / "maf_report.csv"
    rep = checks.read_key_values(str(path))
    path.write_text(path.read_text().replace(f"\nber,{rep['ber']}\n", "\nber,0.5\n"))
    with pytest.raises(checks.CheckError, match="ber"):
        check(tree, settings)


def test_decoded_bit_flipped(tree, settings):
    path = tree / "maf_bits.txt"
    bits = path.read_text()
    path.write_text(("0" if bits[10] == "1" else "1").join([bits[:10], bits[11:]]))
    with pytest.raises(checks.CheckError, match="maf_bits.txt: bit 10"):
        check(tree, settings)


def test_schedule_event_moved(tree, settings):
    path = tree / "schedule.csv"
    lines = path.read_text().splitlines()
    lines[2] = lines[2].replace(lines[2].split(",")[0], f"{float(lines[2].split(',')[0]) + 0.04:.6f}")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="schedule.csv"):
        check(tree, settings)


def test_max_matching_against_brute_force():
    rng = random.Random(7)
    for _ in range(300):
        truth = sorted(rng.uniform(0, 10) for _ in range(rng.randint(0, 5)))
        det = sorted(rng.uniform(0, 10) for _ in range(rng.randint(0, 5)))
        tol = rng.uniform(0.1, 2.0)
        best = 0
        for r in range(len(truth) + 1):
            for sub in itertools.combinations(truth, r):
                for perm in itertools.permutations(det, r):
                    if all(abs(t - d) <= tol for t, d in zip(sub, perm)):
                        best = max(best, r)
        assert checks.max_matching(truth, det, tol) == best


def test_tp_above_maximum_matching():
    checks.check_match("r", 2, [1.0, 5.0], [1.2, 5.1], 0.5)
    with pytest.raises(checks.CheckError, match="exceeds the maximum matching"):
        checks.check_match("r", 2, [1.0, 5.0], [1.2, 1.3], 0.5)
    with pytest.raises(checks.CheckError, match="less than half"):
        checks.check_match("r", 0, [1.0, 5.0], [1.2, 5.1], 0.5)


def noise_free_trace(settings):
    cfg = config.load_config(preset="paper-like")
    params = channel.ChannelParams(**{**cfg.channel.__dict__, "noise_std": 0.0, "spike_rate": 0.0})
    bits = settings.transmitted(settings.payload)
    starts = [i * settings.t_sym for i, b in enumerate(bits) if b == "1"]
    trace = channel.simulate(modem.encode(cfg.bits, cfg.timing, cfg.dose), params)
    n = checks.expected_samples(starts, settings, len(bits) * settings.t_sym)
    return trace.samples.copy(), starts, n


def test_superposition_matches_echo_model(settings):
    samples, starts, n = noise_free_trace(settings)
    checks.check_superposition(samples, starts, settings, n, np.random.default_rng(0))


def test_superposition_detects_wrong_model(settings):
    samples, starts, n = noise_free_trace(settings)
    wrong = checks.Settings(**{**settings.__dict__, "pass_decay": 0.36})
    with pytest.raises(checks.CheckError, match="echo model"):
        checks.check_superposition(samples, starts, wrong, n, np.random.default_rng(0))
    samples[np.argmax(samples)] += 1e-6
    with pytest.raises(checks.CheckError, match="echo model"):
        checks.check_superposition(samples, starts, settings, n, np.random.default_rng(0), k=n)


def test_noise_spread(settings):
    starts = [i * settings.t_sym for i in range(400)]
    n = checks.expected_samples(starts, settings, 400 * settings.t_sym)
    model = checks.echo_model(starts, settings, n)
    rng = np.random.default_rng(3)
    checks.check_noise_spread("t", model + rng.normal(0, settings.noise_std, n), model, settings.noise_std)
    with pytest.raises(checks.CheckError, match="residual spread"):
        checks.check_noise_spread("t", model + rng.normal(0, 1.5 * settings.noise_std, n), model,
                                  settings.noise_std)


def test_replay_checks():
    rec = replaygen.make_recording(5, 50, 0.3, 2.0, 0.04)
    ones = rec.bits.count("1")
    good = ({"raw": ones}, {"raw": rec.bits})
    checks.check_replay("r", rec.printed.copy(), rec.printed, rec.bits, *good)
    off = rec.printed.copy()
    off[17] = np.nextafter(off[17], np.inf)
    with pytest.raises(checks.CheckError, match="sample 17"):
        checks.check_replay("r", off, rec.printed, rec.bits, *good)
    with pytest.raises(checks.CheckError, match="detected"):
        checks.check_replay("r", rec.printed, rec.printed, rec.bits, {"raw": ones - 1}, {"raw": rec.bits})
    flipped = rec.bits[:-1] + ("0" if rec.bits[-1] == "1" else "1")
    with pytest.raises(checks.CheckError, match="decoded bit"):
        checks.check_replay("r", rec.printed, rec.printed, rec.bits, {"raw": ones}, {"raw": flipped})


def test_lab_replay_round_is_correct(tmp_path):
    wl = workloads.LabReplay(11, str(tmp_path))
    wl.configure()
    for item in (0, 1):
        out = str(tmp_path / f"op{item}")
        assert wl.run(item, out) == len(wl.recordings[item][0].printed)
        wl.check(item, out)


def test_repeat_run_must_give_same_tree(tmp_path):
    wl = workloads.SweepPaper(3, str(tmp_path))
    wl.configure()
    wl.run(0, str(tmp_path / "a"))
    wl.check(0, str(tmp_path / "a"))
    wl.run(0, str(tmp_path / "b"))
    wl.check(0, str(tmp_path / "b"))
    with open(tmp_path / "b" / "raw_bits.txt", "a") as fh:
        fh.write(" ")
    with pytest.raises(checks.CheckError, match="different tree"):
        wl.check(0, str(tmp_path / "b"))


def test_tracer_counts_and_missing_layers(tmp_path, monkeypatch):
    monkeypatch.setattr(tracer, "LAYERS", tracer.LAYERS + [("gone", "dsp", "no_such_function", None)])
    t = tracer.Tracer()
    t.install()
    try:
        t.op = 0
        pipeline.run_pipeline(config.load_config(preset="paper-like"), tmp_path / "t")
    finally:
        t.uninstall()
    assert not hasattr(pipeline.simulate, "__wrapped__")
    self_times = t.self_times()[0]
    assert "gone" not in self_times
    assert t.counts[0]["channel.samples"] == 6052
    assert t.counts[0]["channel.echo_passes"] == 150
    assert t.counts[0]["modem.bits_decoded"] == 3 * 100
    assert sum(self_times.values()) == pytest.approx(
        sum(end - start for _, key, start, end, parent, _ in t.spans if parent is None))


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep-paper", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
