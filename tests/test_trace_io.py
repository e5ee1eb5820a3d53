import csv
import io

import numpy as np
import pytest

from bubblelink import trace_io
from bubblelink.config import load_config
from bubblelink.errors import FormatError, ValidationError
from bubblelink.metrics import MatchResult, MetricsReport
from bubblelink.modem import InjectionEvent, InjectionSchedule
from bubblelink.signals import Peak, PeakSet, SensorTrace
from bubblelink.trace_io import (
    _LEAD,
    _PLAIN,
    _TRAIL,
    _digit_words,
    read_bits,
    read_peaks,
    read_schedule,
    read_trace,
    write_bits,
    write_peaks,
    write_schedule,
    write_trace,
)


class TestTraceFiles:
    def test_direct_construction(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time_s,amplitude\n0.00,0.0\n0.04,1.5\n0.08,0.2\n")
        trace = read_trace(p)
        assert len(trace) == 3
        assert trace.sample_interval == pytest.approx(0.04)
        assert trace.t0 == 0.0
        assert trace.samples == pytest.approx([0.0, 1.5, 0.2])

    def test_non_uniform_spacing_names_row(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time_s,amplitude\n0.00,0.0\n0.04,1.0\n0.09,2.0\n")
        with pytest.raises(FormatError, match="row 4"):
            read_trace(p)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time_s,amplitude\n0.00,0.0\n0.04,oops\n")
        with pytest.raises(FormatError, match="row 3.*amplitude"):
            read_trace(p)

    def test_empty_data_section(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time_s,amplitude\n")
        with pytest.raises(FormatError, match="empty"):
            read_trace(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("t,a\n0.0,0.0\n0.04,1.0\n")
        with pytest.raises(FormatError, match="header"):
            read_trace(p)

    def test_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(51))
        trace = SensorTrace(0.04, 0.0, rng.random(500) * 3)
        p = tmp_path / "t.csv"
        write_trace(trace, p)
        back = read_trace(p)
        assert back.sample_interval == pytest.approx(trace.sample_interval, abs=1e-9)
        assert back.t0 == pytest.approx(trace.t0, abs=1e-6)
        assert np.allclose(back.samples, trace.samples, rtol=1e-8, atol=0)

    def test_write_line_counts(self, tmp_path):
        trace = SensorTrace(0.04, 0.0, np.array([1.0, 2.0, 3.0]))
        p = tmp_path / "t.csv"
        write_trace(trace, p)
        assert p.read_text().count("\n") == 4  # header + 3 rows

    def test_empty_trace_writes_header_only(self, tmp_path):
        p = tmp_path / "t.csv"
        write_trace(SensorTrace(0.04, 0.0, np.array([])), p)
        assert p.read_text() == "time_s,amplitude\n"

    @pytest.mark.parametrize("interval, t0", [
        (float("inf"), 0.0), (float("nan"), 0.0), (0.04, float("inf")), (0.04, float("nan")),
        (0.04, float("-inf")), (1e307, 1.79e308),
    ])
    def test_non_finite_time_base_rejected(self, interval, t0):
        with pytest.raises(ValidationError, match="finite"):
            SensorTrace(interval, t0, np.ones(3))

    def test_overflowing_sample_interval_is_format_error(self, tmp_path):
        # both times are finite, their difference is not; no overflow warning escapes
        p = tmp_path / "t.csv"
        p.write_text("time_s,amplitude\n-1e308,1\n1e308,2\n")
        with pytest.raises(FormatError, match="t.csv: sample_interval must be positive and finite$"):
            read_trace(p)

    def test_time_base_ending_past_the_largest_float_is_format_error(self, tmp_path):
        # the last bin's centre would be inf: detect would write an `inf` peak time
        p = tmp_path / "t.csv"
        p.write_text("time_s,amplitude\n1.7e308,1\n1.79e308,2\n")
        with pytest.raises(FormatError, match="t.csv: t0 and the end of the last bin must be finite$"):
            read_trace(p)

    def test_overflowing_step_is_non_uniform(self, tmp_path):
        # the last step, -1e308 - 1e308, overflows; no warning escapes and row 4 is named first
        p = tmp_path / "t.csv"
        p.write_text("time_s,amplitude\n0,1\n1,2\n1e308,3\n-1e308,4\n")
        with pytest.raises(FormatError, match=r"row 4: non-uniform sample spacing \(1e\+308 s"):
            read_trace(p)

    def test_quoted_trace_reads_as_its_plain_twin(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(7))
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        write_trace(SensorTrace(0.04, 1.5, rng.normal(size=300)), plain)
        lines = plain.read_text().splitlines()
        quoted.write_text("\n".join([lines[0]] + [
            ",".join(f'"{cell}"' for cell in line.split(",")) for line in lines[1:]
        ]) + "\n")
        a, b = read_trace(plain), read_trace(quoted)
        assert (a.sample_interval, a.t0) == (b.sample_interval, b.t0)
        assert np.array_equal(a.samples, b.samples)

    def test_plain_quoted_and_padded_traces_skip_csv_reader(self, tmp_path, monkeypatch):
        p = tmp_path / "t.csv"
        p.write_text('time_s,amplitude\r\n0,1\r\n"0.04","-2.5e-3"\r\n0.08, +.5\t')
        monkeypatch.setattr(csv, "reader", None)
        assert read_trace(p).samples.tolist() == [1.0, -2.5e-3, 0.5]

    @pytest.mark.parametrize("header, newline, loop", [
        (b'"time_s","amplitude"', b"\n", False),
        (b' time_s ,"amplitude"', b"\r\n", False),
        (b'"time_s","amplitude"', b"\r", True),  # lone CR line ends stay on the row loop
    ], ids=["quoted", "padded-crlf", "quoted-lone-cr"])
    def test_csv_reader_header_reads_as_its_plain_twin(self, tmp_path, monkeypatch, header, newline, loop):
        plain, other = tmp_path / "plain.csv", tmp_path / "other.csv"
        write_trace(SensorTrace(0.04, 1.5, np.linspace(-1.0, 2.0, 57)), plain)
        lines = plain.read_bytes().splitlines()
        other.write_bytes(newline.join([header] + lines[1:]) + newline)
        opened = []  # the row loop opens the file with open_text; np.loadtxt does not
        open_text = trace_io.open_text
        monkeypatch.setattr(trace_io, "open_text",
                            lambda *a, **k: opened.append(a) or open_text(*a, **k))
        a, b = read_trace(plain), read_trace(other)
        assert (a.sample_interval, a.t0) == (b.sample_interval, b.t0)
        assert np.array_equal(a.samples, b.samples)
        assert len(opened) == loop


def test_digit_word_tables_match_their_definitions():
    tables = _digit_words()
    numbers = range(10_000)
    assert tables[_PLAIN].tobytes() == b"".join(b"%04d" % i for i in numbers)
    assert tables[_LEAD].tobytes() == b"".join(str(i).encode().rjust(4, b"\0") for i in numbers)
    trailing_nul = (("%04d" % i).rstrip("0").ljust(4, "\0") for i in numbers)
    assert tables[_TRAIL].tobytes() == "".join(trailing_nul).encode()


class TestScheduleFiles:
    def test_round_trip(self, tmp_path):
        sched = InjectionSchedule(
            (InjectionEvent(0.0, 0.3, 1.0), InjectionEvent(4.6, 0.3, 2.5)), 6.9
        )
        p = tmp_path / "s.csv"
        write_schedule(sched, p)
        back = read_schedule(p)
        assert len(back) == 2
        for a, b in zip(back.events, sched.events):
            assert a.start == pytest.approx(b.start, abs=1e-6)
            assert a.duration == pytest.approx(b.duration, abs=1e-6)
            assert a.dose == pytest.approx(b.dose, rel=1e-8)

    def test_overlapping_events_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("start_s,duration_s,dose\n0.0,1.0,1.0\n0.5,1.0,1.0\n")
        with pytest.raises(FormatError, match="overlap"):
            read_schedule(p)

    def test_empty_schedule_round_trip(self, tmp_path):
        p = tmp_path / "s.csv"
        write_schedule(InjectionSchedule((), 0.0), p)
        assert len(read_schedule(p)) == 0


class TestPeakFiles:
    def test_round_trip(self, tmp_path):
        peaks = PeakSet((Peak(0.15, 1.25), Peak(4.75, 0.875)))
        p = tmp_path / "p.csv"
        write_peaks(peaks, p)
        back = read_peaks(p)
        assert back.times() == pytest.approx(peaks.times(), abs=1e-6)
        assert [pk.amplitude for pk in back.peaks] == pytest.approx(
            [pk.amplitude for pk in peaks.peaks], rel=1e-8
        )

    def test_unsorted_times_rejected(self, tmp_path):
        p = tmp_path / "p.csv"
        p.write_text("time_s,amplitude\n2.0,1.0\n1.0,1.0\n")
        with pytest.raises(FormatError, match="ascending"):
            read_peaks(p)


@pytest.mark.parametrize("read, text", [
    (read_trace, "time_s,amplitude\n0.00,0.0\n0.04,{}\n0.08,0.5\n"),
    (read_schedule, "start_s,duration_s,dose\n0.0,0.3,1.0\n2.3,0.3,{}\n4.6,0.3,1.0\n"),
    (read_peaks, "time_s,amplitude\n0.15,1.0\n2.45,{}\n4.75,1.0\n"),
], ids=["trace", "schedule", "peaks"])
@pytest.mark.parametrize("cell, error", [
    ("nan", r"row 3, column '\w+': 'nan' is not finite"),
    ("-inf", r"row 3, column '\w+': '-inf' is not finite"),
    ("1.0,2.0", r"row 3: expected \d columns, got \d"),
], ids=["nan", "-inf", "extra-column"])
def test_bad_row_is_named(tmp_path, read, text, cell, error):
    p = tmp_path / "f.csv"
    p.write_text(text.format(cell))
    with pytest.raises(FormatError, match=f"f.csv: {error}$"):
        read(p)


@pytest.mark.parametrize("read, text", [
    (read_trace, "time_s,amplitude\n0.00,0.0\n0.04,{}\n"),
    (read_schedule, "start_s,duration_s,dose\n0.0,0.3,1.0\n2.3,0.3,{}\n"),
    (read_peaks, "time_s,amplitude\n0.15,1.0\n2.45,{}\n"),
], ids=["trace", "schedule", "peaks"])
def test_cell_longer_than_csv_field_limit_is_format_error(tmp_path, read, text):
    p = tmp_path / "f.csv"
    p.write_text(text.format("x" * 140_000))
    with pytest.raises(FormatError, match=r"f.csv: row 3: field larger than field limit"):
        read(p)


@pytest.mark.parametrize("read", [
    read_trace, read_schedule, read_peaks, read_bits, lambda path: load_config(path=path),
], ids=["trace", "schedule", "peaks", "bits", "config"])
def test_non_utf8_file_is_format_error(tmp_path, read):
    p = tmp_path / "f.csv"
    p.write_bytes(b"\xfftime_s,amplitude\n")
    with pytest.raises(FormatError, match="f.csv: not UTF-8 text"):
        read(p)


def test_report_prints_floats_as_9g_and_other_values_as_given():
    fh = io.StringIO()
    report = MetricsReport(precision=2 / 3, recall=1.0, f1=0.8, ber=0.1 + 0.2, bsr=0.7,
                           peaks_total=7)
    extra = [("delay", 1 / 3), ("bits_sent", 12), ("note", "a,b"), ("label", "1.23456789012")]
    trace_io.write_report(fh, MatchResult(2, 1, 0, ()), report, extra)
    rows = dict(csv.reader(io.StringIO(fh.getvalue())))
    assert rows["precision"] == "0.666666667" and rows["ber"] == "0.3"
    assert rows["delay"] == "0.333333333" and rows["recall"] == "1"
    assert rows["tp"] == "2" and rows["peaks_total"] == "7" and rows["bits_sent"] == "12"
    assert rows["note"] == "a,b" and rows["label"] == "1.23456789012"


class TestBitFiles:
    def test_read_bits(self, tmp_path):
        p = tmp_path / "b.txt"
        p.write_text("101")
        assert read_bits(p) == [1, 0, 1]

    def test_round_trip(self, tmp_path):
        p = tmp_path / "b.txt"
        bits = [1, 0, 1, 1, 0, 0, 0, 1]
        write_bits(bits, p)
        assert read_bits(p) == bits

    def test_empty_round_trip(self, tmp_path):
        p = tmp_path / "b.txt"
        write_bits([], p)
        assert read_bits(p) == []

    def test_invalid_characters(self, tmp_path):
        p = tmp_path / "b.txt"
        p.write_text("10x1")
        with pytest.raises(FormatError, match="invalid bit"):
            read_bits(p)
