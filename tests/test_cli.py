import csv
import filecmp
import hashlib
import os
from pathlib import Path

import numpy as np
import pytest

from bubblelink.channel import mean_flow_velocity
from bubblelink.cli import main
from bubblelink.signals import SensorTrace
from bubblelink.trace_io import read_bits, read_peaks, read_schedule, read_trace, write_trace


def read_report(path):
    with open(path) as fh:
        return {row["key"]: row["value"] for row in csv.DictReader(fh)}


def read_comparison(path):
    with open(path) as fh:
        return {row["branch"]: row for row in csv.DictReader(fh)}


NOISELESS = ["--set", "channel.noise_std=0", "--set", "channel.spike_rate=0"]

# SHA-256 of every file of the paper-like output tree, as recorded by bench/digests.py
PAPER_LIKE_DIGESTS = Path(__file__).parent / "data" / "paper_like.sha256"


class TestSubcommands:
    def test_encode(self, tmp_path):
        out = tmp_path / "sched.csv"
        rc = main(["encode", "--bits", "101", "--t-on", "0.3", "--t-off", "2.0", "--out", str(out)])
        assert rc == 0
        sched = read_schedule(out)
        assert [e.start for e in sched.events] == pytest.approx([0.0, 4.6])
        assert all(e.duration == pytest.approx(0.3) for e in sched.events)

    def test_filter_maf_constant_identity(self, tmp_path):
        src = tmp_path / "t.csv"
        dst = tmp_path / "f.csv"
        write_trace(SensorTrace(0.04, 0.0, np.full(50, 2.0)), src)
        rc = main(["filter", "--in", str(src), "--method", "maf", "--window", "8", "--out", str(dst)])
        assert rc == 0
        assert np.allclose(read_trace(dst).samples, 2.0)

    def test_detect_and_decode(self, tmp_path):
        x = np.zeros(200)
        x[3] = 1.0   # frame 0 center bin: 0.15 s -> bin 3
        x[118] = 1.0  # frame 2 center bin: 4.75 s -> bin 118
        src = tmp_path / "t.csv"
        peaks_f = tmp_path / "p.csv"
        bits_f = tmp_path / "b.txt"
        write_trace(SensorTrace(0.04, 0.0, x), src)
        assert main(["detect", "--in", str(src), "--threshold", "0.5",
                     "--min-distance", "10", "--out", str(peaks_f)]) == 0
        peaks = read_peaks(peaks_f)
        assert peaks.times() == pytest.approx([0.14, 4.74], abs=0.021)
        assert main(["decode", "--peaks", str(peaks_f), "--t-on", "0.3", "--t-off", "2.0",
                     "--delay", "0", "--n-bits", "3", "--window", "1.0", "--out", str(bits_f)]) == 0
        assert read_bits(bits_f) == [1, 0, 1]

    def test_evaluate_perfect(self, tmp_path):
        sched_f = tmp_path / "s.csv"
        peaks_f = tmp_path / "p.csv"
        report_f = tmp_path / "r.csv"
        main(["encode", "--bits", "1101", "--t-on", "0.3", "--t-off", "2.0", "--out", str(sched_f)])
        sched = read_schedule(sched_f)
        with open(peaks_f, "w") as fh:
            fh.write("time_s,amplitude\n")
            for e in sched.events:
                fh.write(f"{e.start + 0.15:.6f},1.0\n")
        rc = main(["evaluate", "--peaks", str(peaks_f), "--truth", str(sched_f),
                   "--tolerance", "1.0", "--out", str(report_f)])
        assert rc == 0
        report = read_report(report_f)
        assert float(report["f1"]) == 1.0
        assert float(report["ber"]) == 0.0

    def test_simulate(self, tmp_path):
        sched_f = tmp_path / "s.csv"
        trace_f = tmp_path / "t.csv"
        main(["encode", "--bits", "1", "--t-on", "0.3", "--t-off", "2.0", "--out", str(sched_f)])
        rc = main(["simulate", "--schedule", str(sched_f), "--preset", "paper-like",
                   *NOISELESS, "--out", str(trace_f)])
        assert rc == 0
        trace = read_trace(trace_f)
        assert trace.samples.max() > 0.9  # the bolus passes the sensor

    def test_simulate_with_channel_only_config_file(self, tmp_path):
        sched_f = tmp_path / "s.csv"
        cfg_f = tmp_path / "channel.cfg"
        cfg_f.write_text(
            "channel.flow_rate=1.24\nchannel.tube_diameter=0.009525\n"
            "channel.distance_to_sensor=0.5\nchannel.loop_length=2.0\n"
            "channel.dispersion_coeff=0.05\nchannel.initial_spread=0.05\n"
            "channel.pass_decay=0.35\nchannel.echo_cutoff=0.05\nchannel.sample_interval=0.04\n"
        )
        main(["encode", "--bits", "1", "--t-on", "0.3", "--t-off", "2.0", "--out", str(sched_f)])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--schedule", str(sched_f), "--config", str(cfg_f),
                     "--out", str(a)]) == 0
        assert main(["simulate", "--schedule", str(sched_f), "--preset", "paper-like",
                     *NOISELESS, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPipeline:
    def run(self, tmp_path, name, extra=()):
        out = tmp_path / name
        rc = main(["pipeline", "--preset", "paper-like", *extra, "--out-dir", str(out)])
        assert rc == 0
        return out

    def test_noiseless_round_trip(self, tmp_path):
        out = self.run(tmp_path, "run", NOISELESS + ["--set", "bits.value=1011001011001101"])
        comparison = read_comparison(out / "comparison.csv")
        sent = read_bits(out / "bits_sent.txt")
        for branch in ("raw", "maf", "kalman"):
            assert float(comparison[branch]["ber"]) == 0.0
            assert read_bits(out / f"{branch}_bits.txt") == sent
        assert sent[1:] == [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1]

    def test_determinism_and_seed_sensitivity(self, tmp_path):
        bits = ["--set", "bits.value=101100"]
        a = self.run(tmp_path, "a", bits)
        b = self.run(tmp_path, "b", bits)
        files = sorted(os.listdir(a))
        assert files == sorted(os.listdir(b))
        for f in files:
            assert filecmp.cmp(a / f, b / f, shallow=False), f
        c = self.run(tmp_path, "c", bits + ["--set", "channel.rng_seed=43"])
        assert not filecmp.cmp(a / "raw_trace.csv", c / "raw_trace.csv", shallow=False)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        bits = ["--set", "bits.value=101100"]
        a = self.run(tmp_path, "a", bits)
        monkeypatch.setenv("BUBBLELINK_SEED", "4242")
        b = self.run(tmp_path, "b", bits)
        assert not filecmp.cmp(a / "raw_trace.csv", b / "raw_trace.csv", shallow=False)

    def test_composability_with_subcommands(self, tmp_path):
        out = self.run(tmp_path, "run", ["--set", "bits.value=10110010"])
        # rebuild the maf branch by hand from the pipeline's intermediates
        trace_f = tmp_path / "maf.csv"
        peaks_f = tmp_path / "peaks.csv"
        report_f = tmp_path / "report.csv"
        assert main(["filter", "--in", str(out / "raw_trace.csv"), "--method", "maf",
                     "--window", "8", "--out", str(trace_f)]) == 0
        # CSV round-trips at 9 significant digits, so compare values, not bytes
        assert np.allclose(read_trace(trace_f).samples,
                           read_trace(out / "maf_trace.csv").samples, rtol=1e-8)
        assert main(["detect", "--in", str(trace_f), "--threshold", "0.55",
                     "--min-distance", "25", "--out", str(peaks_f)]) == 0
        assert read_peaks(peaks_f).times() == pytest.approx(
            read_peaks(out / "maf_peaks.csv").times(), abs=1e-6
        )
        transit = 0.5 / mean_flow_velocity(1.24, 0.009525)
        assert main(["evaluate", "--peaks", str(peaks_f), "--truth", str(out / "schedule.csv"),
                     "--tolerance", "1.0", "--truth-shift", str(transit),
                     "--out", str(report_f)]) == 0
        manual = read_report(report_f)
        branch = read_report(out / "maf_report.csv")
        for key in ("tp", "fp", "fn", "precision", "recall", "f1", "ber", "bsr"):
            assert manual[key] == branch[key], key

    def test_paper_like_tree_digests(self, tmp_path):
        out = self.run(tmp_path, "run")
        expected = {}
        for line in PAPER_LIKE_DIGESTS.read_text().splitlines():
            digest, name = line.split("  paper-like/")
            expected[name] = digest
        assert sorted(os.listdir(out)) == sorted(expected)
        for name, digest in expected.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_report_values_are_csv_quoted(self, tmp_path):
        out = self.run(tmp_path, "run", ["--set", "peak.threshold.raw=100"])
        with open(out / "raw_report.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == 2 for row in rows), rows
        assert dict(rows)["warning"] == (
            "no peaks detected; preamble delay estimation failed, using model transit time"
        )

    def test_failed_validation_writes_nothing(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["pipeline", "--preset", "paper-like", "--set", "decode.window=5",
                   "--out-dir", str(out)])
        assert rc == 2
        assert not out.exists()


class TestPlot:
    def test_deterministic_svg(self, tmp_path):
        trace_f = tmp_path / "t.csv"
        write_trace(SensorTrace(0.04, 0.0, np.abs(np.sin(np.arange(100) / 5))), trace_f)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["plot", "--trace", str(trace_f), "--out", str(a)]) == 0
        assert main(["plot", "--trace", str(trace_f), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.count("<polyline") == 1
        assert 'version="1.1"' in text

    def test_peak_markers(self, tmp_path):
        trace_f = tmp_path / "t.csv"
        peaks_f = tmp_path / "p.csv"
        write_trace(SensorTrace(0.04, 0.0, np.abs(np.sin(np.arange(100) / 5))), trace_f)
        peaks_f.write_text("time_s,amplitude\n0.3,1.0\n2.5,0.9\n")
        out = tmp_path / "o.svg"
        assert main(["plot", "--trace", str(trace_f), "--peaks", str(peaks_f), "--out", str(out)]) == 0
        assert out.read_text().count("<circle") == 2


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        rc = main(["filter", "--in", str(tmp_path / "nope.csv"), "--method", "maf",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1

    def test_malformed_config_is_validation_error(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("timing.t_on=0.3\n")  # missing nearly everything
        rc = main(["pipeline", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("argv, message", [
        ("encode --bits 101 --t-on 2.0 --t-off 0.3", "t_off must be >= t_on"),
        ("encode --bits 101 --t-on 0.3 --t-off 2.0 --dose inf", "must be finite"),
        ("filter --in {trace} --method maf --window 0", "window must be at least 1"),
        ("filter --in {trace} --method kalman --q 0.5", "--q needs --r"),
        ("filter --in {trace} --method kalman --r 0.5", "--r needs --q"),
        ("detect --in {trace} --min-distance 0", "min_distance must be at least 1"),
        ("detect --in {trace} --threshold nan", "threshold must be finite"),
        ("decode --peaks {peaks} --t-on 0.3 --t-off 2.0 --delay nan --n-bits 4",
         "delay must be finite"),
        ("decode --peaks {peaks} --t-on 0.3 --t-off 2.0 --delay inf --n-bits 4",
         "delay must be finite"),
        ("filter --in {trace} --method kalman --q nan --r 1", "q must be finite"),
        ("filter --in {trace} --method kalman --q 1 --r inf", "r must be finite"),
        ("filter --in {trace} --method kalman --q 1 --r 1 --x0 inf", "x0 must be finite"),
    ], ids=["encode-t_off-below-t_on", "encode-dose-inf", "filter-window-0",
            "filter-q-without-r", "filter-r-without-q", "detect-min-distance-0",
            "detect-threshold-nan", "decode-delay-nan", "decode-delay-inf",
            "filter-kalman-q-nan", "filter-kalman-r-inf", "filter-kalman-x0-inf"])
    def test_invalid_argument_is_validation_error(self, tmp_path, capsys, argv, message):
        trace_f = tmp_path / "t.csv"
        write_trace(SensorTrace(0.04, 0.0, np.abs(np.sin(np.arange(100) / 5))), trace_f)
        peaks_f = tmp_path / "p.csv"
        peaks_f.write_text("time_s,amplitude\n0.3,1.0\n")
        out = tmp_path / "out.csv"
        argv = [a.format(trace=trace_f, peaks=peaks_f) for a in argv.split()]
        rc = main([*argv, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_encode_requires_bits(self, tmp_path):
        rc = main(["encode", "--t-on", "0.3", "--t-off", "2.0", "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    @pytest.mark.parametrize("setting", [
        "peak.threshold.raw=abc", "channel.echo_cutoff=inf", "dose=nan", "peak.treshold=9",
    ])
    def test_bad_config_setting_names_key(self, tmp_path, capsys, setting):
        out = tmp_path / "out"
        rc = main(["pipeline", "--preset", "paper-like", "--set", setting, "--out-dir", str(out)])
        assert rc == 2
        assert repr(setting.partition("=")[0]) in capsys.readouterr().err
        assert not out.exists()

    def test_bad_input_file_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("start_s,duration_s,dose\n0.0,1.0,1.0\n0.5,1.0,1.0\n")
        rc = main(["simulate", "--schedule", str(bad), "--preset", "paper-like",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
