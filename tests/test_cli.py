import csv
import filecmp
import hashlib
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from bubblelink.channel import mean_flow_velocity
from bubblelink.cli import ALIASES, main
from bubblelink.config import BRANCHES, KNOWN_KEYS, parse_config_text, preset_text
from bubblelink.signals import SensorTrace
from bubblelink.trace_io import read_bits, read_peaks, read_schedule, read_trace, write_trace


def read_report(path):
    with open(path) as fh:
        return {row["key"]: row["value"] for row in csv.DictReader(fh)}


def read_comparison(path):
    with open(path) as fh:
        return {row["branch"]: row for row in csv.DictReader(fh)}


NOISELESS = ["--set", "channel.noise_std=0", "--set", "channel.spike_rate=0"]

# SHA-256 of every file of the benchmark's output trees, one "digest  tree/file" line each
BENCH_DIGESTS = Path(__file__).parents[1] / "bench" / "digests.txt"
# the preset overrides behind each tree of that file (``TREES`` in bench/digests.py)
DIGEST_TREES = {"paper-like": [], "long-record": ["--set", "bits.length=2000", "--set", "bits.seed=0"]}
HUGE_INT = "9" * 400  # beyond float range


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
        assert peaks.table[:, 0].tolist() == pytest.approx([0.14, 4.74], abs=0.021)
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

    def test_filter_kalman_x0_defaults_to_zero(self, tmp_path):
        src, dst = tmp_path / "t.csv", tmp_path / "f.csv"
        write_trace(SensorTrace(0.04, 0.0, np.full(10, 5.0)), src)
        assert main(["filter", "--in", str(src), "--method", "kalman", "--q", "1", "--r", "2",
                     "--out", str(dst)]) == 0
        # from x0 = 0 and p0 = r = 2 the first gain is (2 + 1) / (2 + 1 + 2) = 0.6
        assert read_trace(dst).samples[0] == pytest.approx(3.0)

    @pytest.mark.parametrize("extra, bits", [
        ([], [0, 0]), (["--set", "tolerance=2"], [1, 0]),
    ], ids=["tolerance", "half-symbol"])
    def test_decode_window_defaults_to_tolerance_within_half_a_symbol(self, tmp_path, extra, bits):
        peaks_f, bits_f = tmp_path / "p.csv", tmp_path / "b.txt"
        peaks_f.write_text("time_s,amplitude\n1.25,1.0\n")  # 1.1 s after bit 0's centre
        assert main(["decode", "--peaks", str(peaks_f), "--t-on", "0.3", "--t-off", "2.0",
                     "--delay", "0", "--n-bits", "2", *extra, "--out", str(bits_f)]) == 0
        assert read_bits(bits_f) == bits

    def test_filter_maf_window_defaults_to_t_on(self, tmp_path):
        src, dst = tmp_path / "t.csv", tmp_path / "f.csv"
        write_trace(SensorTrace(0.04, 0.0, np.arange(20.0)), src)
        assert main(["filter", "--in", str(src), "--method", "maf", "--set", "timing.t_on=0.12",
                     "--out", str(dst)]) == 0
        assert read_trace(dst).samples.tolist() == [0.0, 0.5] + list(range(1, 19))  # window 3

    def test_alias_beats_set_and_preset(self, tmp_path):
        src, dst = tmp_path / "t.csv", tmp_path / "f.csv"
        write_trace(SensorTrace(0.04, 0.0, np.arange(20.0)), src)
        assert main(["filter", "--in", str(src), "--method", "maf", "--preset", "paper-like",
                     "--set", "maf.window=4", "--window", "1", "--out", str(dst)]) == 0
        assert read_trace(dst).samples.tolist() == list(range(20))

    def test_every_alias_is_a_config_key(self):
        assert {key for aliases in ALIASES.values() for key in aliases.values()} <= KNOWN_KEYS

    def test_readme_staged_commands_run(self, tmp_path, monkeypatch):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = next(b for b in readme.split("```sh\n")[1:] if b.startswith("bubblelink encode"))
        lines = block.partition("```")[0].splitlines()
        assert len(lines) == 7
        monkeypatch.chdir(tmp_path)
        for line in lines:
            assert main(shlex.split(line)[1:]) == 0, line


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

    def test_env_seed_beats_set_seed(self, tmp_path, monkeypatch):
        bits = ["--set", "bits.value=101100"]
        a = self.run(tmp_path, "a", bits + ["--set", "channel.rng_seed=7"])
        monkeypatch.setenv("BUBBLELINK_SEED", "7")
        b = self.run(tmp_path, "b", bits + ["--set", "channel.rng_seed=43"])
        assert (a / "raw_trace.csv").read_bytes() == (b / "raw_trace.csv").read_bytes()

    def test_staged_simulate_honours_env_seed(self, tmp_path, monkeypatch):
        schedule = tmp_path / "s.csv"
        assert main(["encode", "--bits", "101", "--t-on", "0.3", "--t-off", "2.0",
                     "--out", str(schedule)]) == 0

        def simulate(name, *extra):
            out = tmp_path / name
            assert main(["simulate", "--schedule", str(schedule), "--preset", "paper-like",
                         *extra, "--out", str(out)]) == 0
            return out.read_bytes()

        seed_7, seed_42 = simulate("a.csv", "--set", "channel.rng_seed=7"), simulate("b.csv")
        monkeypatch.setenv("BUBBLELINK_SEED", "7")
        assert simulate("c.csv") == seed_7 != seed_42

    def test_first_peak_before_half_t_on_clamps_the_delay(self, tmp_path, capsys):
        # the sensor sits 0.1 mm downstream, so the raw trace's first peak comes before t_on/2
        out = self.run(tmp_path, "run", NOISELESS + [
            "--set", "channel.distance_to_sensor=0.0001", "--set", "bits.value=1011"])
        report = read_report(out / "raw_report.csv")
        assert report["decode_delay"] == "0"
        assert report["warning"] == "estimated delay was negative; clamped to 0"
        assert "raw: warning: estimated delay was negative; clamped to 0" in capsys.readouterr().err

    def test_composability_with_subcommands(self, tmp_path):
        """The staged commands, given the preset and no numeric stage flag, rebuild every branch."""
        out = self.run(tmp_path, "run")
        preset = parse_config_text(preset_text("paper-like"))
        bits = "".join(map(str, read_bits(out / "bits_sent.txt")))
        transit = 0.5 / mean_flow_velocity(1.24, 0.009525)

        def stage(*argv):
            assert main([*map(str, argv), "--preset", "paper-like"]) == 0

        schedule_f, raw_f = tmp_path / "schedule.csv", tmp_path / "raw_trace.csv"
        stage("encode", "--out", schedule_f)
        stage("simulate", "--schedule", schedule_f, "--out", raw_f)
        for name in ("schedule.csv", "raw_trace.csv"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name
        for branch in BRANCHES:
            trace_f, peaks_f = tmp_path / f"{branch}_trace.csv", tmp_path / f"{branch}_peaks.csv"
            bits_f, report_f = tmp_path / f"{branch}_bits.txt", tmp_path / f"{branch}_report.csv"
            if branch != "raw":
                stage("filter", "--in", raw_f, "--method", branch, "--out", trace_f)
                # filter reads the raw trace at 9 significant digits, and both sides write at 9
                staged, piped = read_trace(trace_f).samples, read_trace(out / trace_f.name).samples
                np.testing.assert_allclose(staged, piped, rtol=2e-8, atol=1e-8)
            stage("detect", "--in", trace_f, "--threshold", preset[f"peak.threshold.{branch}"],
                  "--out", peaks_f)
            staged_times = read_peaks(peaks_f).table[:, 0].tolist()
            assert staged_times == read_peaks(out / peaks_f.name).table[:, 0].tolist(), branch
            pipeline_report = read_report(out / report_f.name)
            stage("decode", "--peaks", peaks_f, "--delay", pipeline_report["decode_delay"],
                  "--n-bits", len(bits), "--out", bits_f)
            assert bits_f.read_bytes() == (out / bits_f.name).read_bytes(), branch
            stage("evaluate", "--peaks", peaks_f, "--truth", schedule_f,
                  "--truth-shift", transit, "--out", report_f)
            staged_report = read_report(report_f)
            for key in ("tp", "fp", "fn", "precision", "recall", "f1", "ber", "bsr"):
                assert staged_report[key] == pipeline_report[key], (branch, key)

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_staged_detect_takes_the_branch_threshold(self, tmp_path, branch):
        out = self.run(tmp_path, "run")
        peaks_f = tmp_path / f"{branch}_peaks.csv"
        assert main(["detect", "--preset", "paper-like", "--branch", branch,
                     "--in", str(out / f"{branch}_trace.csv"), "--out", str(peaks_f)]) == 0
        assert peaks_f.read_bytes() == (out / peaks_f.name).read_bytes()

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6: read_schedule ends the span at the "
                       "last event, so simulate drops the trailing 0-bits")
    def test_staged_simulate_spans_every_bit(self, tmp_path):
        out = self.run(tmp_path, "run", ["--set", "bits.value=10000000000"])
        bits = "".join(map(str, read_bits(out / "bits_sent.txt")))
        schedule, trace = tmp_path / "s.csv", tmp_path / "t.csv"
        assert main(["encode", "--bits", bits, "--preset", "paper-like",
                     "--out", str(schedule)]) == 0
        assert main(["simulate", "--schedule", str(schedule), "--preset", "paper-like",
                     "--out", str(trace)]) == 0
        assert len(read_trace(trace)) == len(read_trace(out / "raw_trace.csv")) == 690

    @pytest.mark.parametrize("tree", DIGEST_TREES)
    def test_paper_like_tree_digests(self, tmp_path, tree):
        out = self.run(tmp_path, tree, DIGEST_TREES[tree])
        expected = {}
        for line in BENCH_DIGESTS.read_text().splitlines():
            digest, _, path = line.partition("  ")
            line_tree, _, name = path.partition("/")
            if line_tree == tree and name:  # "<tree>/" alone digests the whole tree
                expected[name] = digest
        assert sorted(os.listdir(out)) == sorted(expected)
        for name, digest in expected.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_staged_filter_reads_a_fractional_microsecond_interval(self, tmp_path):
        # the raw trace prints steps of 0.033333 and 0.033334 s
        out = self.run(tmp_path, "run", ["--set", "channel.sample_interval=0.0333333"])
        maf_f = tmp_path / "maf_trace.csv"
        assert main(["filter", "--in", str(out / "raw_trace.csv"), "--method", "maf",
                     "--preset", "paper-like", "--out", str(maf_f)]) == 0
        staged, piped = read_trace(maf_f), read_trace(out / "maf_trace.csv")
        assert staged.sample_interval == piped.sample_interval == pytest.approx(0.0333333, abs=1e-9)
        np.testing.assert_allclose(staged.samples, piped.samples, rtol=2e-8, atol=1e-8)

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

    def test_truth_spans_and_peak_markers_of_a_pipeline_run(self, tmp_path):
        run = tmp_path / "run"
        assert main(["pipeline", "--preset", "paper-like", "--out-dir", str(run)]) == 0
        out = tmp_path / "o.svg"
        assert main(["plot", "--trace", str(run / "raw_trace.csv"), "--peaks", str(run / "raw_peaks.csv"),
                     "--truth", str(run / "schedule.csv"), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("<rect") == 1 + len(read_schedule(run / "schedule.csv")) == 51
        assert text.count("<circle") == len(read_peaks(run / "raw_peaks.csv")) == 91
        # the SVG pinned as the renderer drew it from the peaks' and events' named tuples
        digest = "e7ae8fa4e3d7c85e80ebb5ccea1355d4d8f4f206e6b9343ac221f01a3e89d5b9"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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

    def test_partial_kalman_section_names_the_missing_key(self, tmp_path, capsys):
        lines = preset_text("paper-like").splitlines(keepends=True)
        cfg = tmp_path / "c.cfg"
        kept = [line for line in lines if not line.startswith("kalman.")]
        cfg.write_text("".join(kept) + "kalman.x0=5\n")
        out = tmp_path / "out"
        rc = main(["pipeline", "--config", str(cfg), "--out-dir", str(out)])
        assert rc == 2
        assert "missing required key 'kalman.r'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        ("encode --bits 101 --t-on 2.0 --t-off 0.3", "t_off must be >= t_on"),
        ("encode --bits 101 --t-on 0.3 --t-off 2.0 --dose inf", "'dose': 'inf' is not finite"),
        ("filter --in {trace} --method maf --window 0", "window must be at least 1"),
        ("filter --in {trace} --method maf", "missing required key 'maf.window'"),
        ("filter --in {trace} --method kalman --q 0.5", "missing required key 'kalman.r'"),
        ("filter --in {trace} --method kalman --r 0.5", "missing required key 'kalman.q'"),
        ("detect --in {trace} --min-distance 0", "min_distance must be at least 1"),
        ("detect --in {trace} --threshold nan", "threshold must be finite"),
        ("decode --peaks {peaks} --t-on 0.3 --t-off 2.0 --delay nan --n-bits 4",
         "delay must be finite"),
        ("decode --peaks {peaks} --t-on 0.3 --t-off 2.0 --delay inf --n-bits 4",
         "delay must be finite"),
        ("decode --peaks {peaks} --t-on 0.3 --t-off 2.0 --delay -1e-3 --n-bits 4",
         "delay must be finite and non-negative"),
        ("filter --in {trace} --method kalman --q nan --r 1", "'kalman.q': 'nan' is not finite"),
        ("filter --in {trace} --method kalman --q 1 --r inf", "'kalman.r': 'inf' is not finite"),
        ("filter --in {trace} --method kalman --q 1 --r 1 --x0 inf",
         "'kalman.x0': 'inf' is not finite"),
        ("filter --in {trace} --method kalman --x0 1", "missing required key 'kalman.r'"),
        ("decode --peaks {peaks} --t-on 0.3 --t-off inf --delay 0 --n-bits 3",
         "'timing.t_off': 'inf' is not finite"),
        ("encode --bits 0 --t-on 0.3 --t-off inf", "'timing.t_off': 'inf' is not finite"),
        ("decode --peaks {peaks} --t-on 1e308 --t-off 1e308 --delay 0 --n-bits 3",
         "symbol_duration must be finite"),
        # 1 s and t_on are infinitely many samples of 1e-320 s
        ("detect --in {tiny}", "sample interval 9.99989e-321 s is too small"),
        ("filter --in {tiny} --method maf --set timing.t_on=0.3",
         "sample interval 9.99989e-321 s is too small"),
    ], ids=["encode-t_off-below-t_on", "encode-dose-inf", "filter-window-0", "filter-no-window",
            "filter-q-without-r", "filter-r-without-q", "detect-min-distance-0",
            "detect-threshold-nan", "decode-delay-nan", "decode-delay-inf",
            "decode-delay-negative-exponent",
            "filter-kalman-q-nan", "filter-kalman-r-inf", "filter-kalman-x0-inf",
            "filter-x0-without-q-r", "decode-t_off-inf", "encode-t_off-inf",
            "decode-symbol-duration-overflow", "detect-tiny-sample-interval",
            "filter-maf-tiny-sample-interval"])
    def test_invalid_argument_is_validation_error(self, tmp_path, capsys, argv, message):
        trace_f = tmp_path / "t.csv"
        write_trace(SensorTrace(0.04, 0.0, np.abs(np.sin(np.arange(100) / 5))), trace_f)
        peaks_f = tmp_path / "p.csv"
        peaks_f.write_text("time_s,amplitude\n0.3,1.0\n")
        tiny_f = tmp_path / "tiny.csv"
        tiny_f.write_text("time_s,amplitude\n0,1\n1e-320,2\n2e-320,1\n")
        out = tmp_path / "out.csv"
        argv = [a.format(trace=trace_f, peaks=peaks_f, tiny=tiny_f) for a in argv.split()]
        rc = main([*argv, "--out", str(out)])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def evaluate_shifted(self, tmp_path, shift, *extra):
        """Score a one-peak file against the 5-bit schedule of 10110, shifted by ``shift``."""
        schedule_f, peaks_f, out = tmp_path / "s.csv", tmp_path / "p.csv", tmp_path / "r.csv"
        assert main(["encode", "--bits", "10110", "--t-on", "0.3", "--t-off", "2.0",
                     "--out", str(schedule_f)]) == 0
        peaks_f.write_text("time_s,amplitude\n0.3,1.0\n")
        rc = main(["evaluate", "--peaks", str(peaks_f), "--truth", str(schedule_f),
                   "--truth-shift", shift, *extra, "--out", str(out)])
        return rc, out

    def test_peaks_total_is_the_ber_denominator(self, tmp_path):
        rc, out = self.evaluate_shifted(tmp_path, "0", "--peaks-total", "100")
        assert rc == 0
        report = read_report(out)
        assert (report["tp"], report["fp"], report["fn"]) == ("1", "0", "2")
        assert (report["peaks_total"], report["ber"]) == ("100", "0.02")

    def test_zero_peaks_total_exits_2(self, tmp_path, capsys):
        rc, out = self.evaluate_shifted(tmp_path, "0", "--peaks-total", "0")
        assert rc == 2
        assert "BER is undefined for peaks_total <= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_truth_shift_past_the_span_scores(self, tmp_path):
        # the last event ends at 7.2 s, so the shifted span would be negative; it clamps at 0
        rc, out = self.evaluate_shifted(tmp_path, "-20")
        assert rc == 0
        report = read_report(out)
        assert (report["tp"], report["fn"]) == ("0", "3")

    @pytest.mark.parametrize("shift", ["nan", "inf", "-inf"])
    def test_non_finite_truth_shift_names_the_flag(self, tmp_path, capsys, shift):
        rc, out = self.evaluate_shifted(tmp_path, shift)
        assert rc == 2
        assert "--truth-shift must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_exponent_form_truth_shift_is_a_value(self, tmp_path):
        # argparse alone takes -1e1 for an option: "expected one argument"
        rc, out = self.evaluate_shifted(tmp_path, "-1e1")
        assert rc == 0
        assert read_report(out)["fn"] == "3"

    @pytest.mark.parametrize("argv", [
        "filter --in {trace} --method kalman --q 1 --r 1 --x0 -1e-3",
        "detect --in {trace} --threshold -1E1",
        "detect --in {trace} --threshold=-1e1",
    ])
    def test_negative_exponent_form_values_are_values(self, tmp_path, argv):
        trace_f, out = tmp_path / "t.csv", tmp_path / "out.csv"
        write_trace(SensorTrace(0.04, 0.0, np.abs(np.sin(np.arange(100) / 5))), trace_f)
        assert main([*argv.format(trace=trace_f).split(), "--out", str(out)]) == 0
        assert out.exists()

    def test_tiny_sample_interval_with_a_min_distance_detects(self, tmp_path):
        tiny_f = tmp_path / "tiny.csv"
        tiny_f.write_text("time_s,amplitude\n0,1\n1e-320,2\n2e-320,1\n")
        out = tmp_path / "p.csv"
        assert main(["detect", "--in", str(tiny_f), "--min-distance", "3", "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 2  # the header and the one peak

    def test_encode_requires_bits(self, tmp_path, capsys):
        rc = main(["encode", "--t-on", "0.3", "--t-off", "2.0", "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert "config: provide bits.value or bits.length" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_encode_refuses_bits_with_bits_file(self, tmp_path, capsys):
        bits_f = tmp_path / "bits.txt"
        bits_f.write_text("1\n")
        with pytest.raises(SystemExit) as exc:
            main(["encode", "--bits", "101", "--bits-file", str(bits_f), "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("setting", [
        "peak.threshold.raw=abc", "channel.echo_cutoff=inf", "dose=nan", "peak.treshold=9",
        "timing.mode=framed", "peak.threshold=0.5", "maf.window=1.5", "channel.max_samples=2.5",
        pytest.param(f"bits.length={HUGE_INT}", id="bits.length=huge"),
        pytest.param(f"channel.max_samples={HUGE_INT}", id="channel.max_samples=huge"),
        "bits.seed=-3", "bits.seed=abc",  # the preset's bits.value draws no bits
    ])
    def test_bad_config_setting_names_key(self, tmp_path, capsys, setting):
        out = tmp_path / "out"
        rc = main(["pipeline", "--preset", "paper-like", "--set", setting, "--out-dir", str(out)])
        assert rc == 2
        assert repr(setting.partition("=")[0]) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        "detect --in {bad} --out {out}",
        "encode --bits-file {bad} --t-on 0.3 --t-off 2.0 --out {out}",
        "pipeline --config {bad} --out-dir {out}",
    ], ids=["detect", "encode", "pipeline"])
    def test_non_utf8_input_is_validation_error(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff101\n")
        out = tmp_path / "out"
        rc = main([a.format(bad=bad, out=out) for a in argv.split()])
        assert rc == 2
        assert f"{bad}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_over_cap_payload_is_refused_before_the_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["pipeline", "--preset", "paper-like", "--set", "bits.length=1000",
                   "--set", "channel.max_samples=1000", "--out-dir", str(out)])
        assert rc == 1
        assert "channel.max_samples cap of 1000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        # 0.999**k keeps about 3,000 passes 6.9 s apart; 10,000 samples end at 400 s
        ("channel.pass_decay=0.999", "channel.max_samples cap of 10000"),
        # 100/s over 6,052 samples of 0.04 s is a mean of 24,208 spikes
        ("channel.spike_rate=100",
         "channel.spike_rate=100 would draw about 24208 spikes, over the channel.max_samples cap"),
    ], ids=["echo-passes", "spikes"])
    def test_channel_work_over_the_sample_cap_is_refused(self, tmp_path, capsys, setting, message):
        out = tmp_path / "out"
        rc = main(["pipeline", "--preset", "paper-like", "--set", setting,
                   "--set", "channel.max_samples=10000", "--out-dir", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_payload_too_large_for_memory_is_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["pipeline", "--preset", "paper-like", "--set", "bits.length=1000000000000000",
                   "--set", "channel.max_samples=1000000000000000000000", "--out-dir", str(out)])
        assert rc == 1
        assert "bits.length=1000000000000000 does not fit in memory" in capsys.readouterr().err
        assert not out.exists()

    def test_bit_count_too_large_for_memory_is_refused(self, tmp_path, capsys):
        peaks_f = tmp_path / "p.csv"
        peaks_f.write_text("time_s,amplitude\n0.3,1.0\n")
        out = tmp_path / "bits.txt"
        rc = main(["decode", "--peaks", str(peaks_f), "--t-on", "0.3", "--t-off", "2.0",
                   "--delay", "0", "--n-bits", "10000000000000", "--out", str(out)])
        assert rc == 1
        assert "n_bits=10000000000000 does not fit in memory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, env_seed, message", [
        ("pipeline --preset paper-like --set channel.rng_seed=-1 --out-dir {out}", None,
         "rng_seed must be non-negative"),
        ("pipeline --preset paper-like --set bits.length=5 --set bits.seed=-3 --out-dir {out}", None,
         "bits.seed must be non-negative"),
        ("pipeline --preset paper-like --out-dir {out}", "-2", "rng_seed must be non-negative"),
        ("simulate --schedule {schedule} --preset paper-like --set channel.rng_seed=-1 --out {out}",
         None, "rng_seed must be non-negative"),
    ], ids=["pipeline-rng_seed", "pipeline-bits.seed", "pipeline-env-seed", "simulate-rng_seed"])
    def test_negative_seed_is_validation_error(self, tmp_path, capsys, monkeypatch, argv,
                                               env_seed, message):
        schedule = tmp_path / "s.csv"
        main(["encode", "--bits", "101", "--t-on", "0.3", "--t-off", "2.0", "--out", str(schedule)])
        if env_seed is not None:
            monkeypatch.setenv("BUBBLELINK_SEED", env_seed)
        out = tmp_path / "out"
        rc = main([a.format(schedule=schedule, out=out) for a in argv.split()])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, env_seed, rc, message", [
        ("pipeline --preset paper-like --set bits.length=10 --set bits.value=101 --out-dir {out}",
         None, 2, "bits.value and bits.length are both set"),
        ("pipeline --preset paper-like --config {both} --out-dir {out}",
         None, 2, "bits.value and bits.length are both set"),
        ("pipeline --preset paper-like --out-dir {out}",
         HUGE_INT + "9", 2, f"config key 'channel.rng_seed': '{HUGE_INT}9' is not finite"),
        ("pipeline --preset paper-like --set channel.rng_seed=abc --out-dir {out}", "5", 0, None),
        ("pipeline --preset paper-like --out-dir {out}",
         "abc", 2, "config key 'channel.rng_seed': cannot parse 'abc' as an integer"),
        ("filter --in {trace} --method maf --preset paper-like --out {out}", "abc", 0, None),
    ], ids=["set-both-payload-keys", "file-both-payload-keys", "env-seed-huge",
            "env-seed-replaces-set-seed", "env-seed-abc-pipeline", "env-seed-abc-filter"])
    def test_config_layers_exit_codes(self, tmp_path, capsys, monkeypatch, argv, env_seed, rc,
                                      message):
        both, trace_f = tmp_path / "both.cfg", tmp_path / "t.csv"
        both.write_text("bits.value=1\nbits.length=5\n")
        write_trace(SensorTrace(0.04, 0.0, np.abs(np.sin(np.arange(100) / 5))), trace_f)
        if env_seed is not None:
            monkeypatch.setenv("BUBBLELINK_SEED", env_seed)
        out = tmp_path / "out"
        assert main([a.format(both=both, trace=trace_f, out=out) for a in argv.split()]) == rc
        if message is None:
            assert out.exists()
        else:
            assert message in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        "pipeline --preset paper-like --set bits.length=1{zeros} --out-dir {out}",
        "pipeline --preset paper-like --set channel.sample_interval=1e-320 --out-dir {out}",
        "pipeline --preset paper-like --set preamble=1{zeros} --set bits.length=1{zeros}"
        " --out-dir {out}",
        "simulate --schedule {schedule} --preset paper-like --set channel.sample_interval=1e-320"
        " --out {out}",
    ], ids=["pipeline-bits.length", "pipeline-sample_interval", "pipeline-bit-count-sum",
            "simulate-sample_interval"])
    def test_infinite_span_is_refused_at_the_cap(self, tmp_path, capsys, argv):
        schedule = tmp_path / "s.csv"
        main(["encode", "--bits", "101", "--t-on", "0.3", "--t-off", "2.0", "--out", str(schedule)])
        out = tmp_path / "out"
        rc = main([a.format(schedule=schedule, out=out, zeros="0" * 308) for a in argv.split()])
        assert rc == 1
        assert "channel.max_samples cap of 1000000" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_input_file_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("start_s,duration_s,dose\n0.0,1.0,1.0\n0.5,1.0,1.0\n")
        rc = main(["simulate", "--schedule", str(bad), "--preset", "paper-like",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
