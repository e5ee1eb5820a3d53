"""CSV serialization of traces, schedules, peaks, bits, and reports.

All files are comma-separated UTF-8 with LF line endings and a `.` decimal
point. Times are printed with 6 decimals, amplitudes/doses with 9
significant digits; every write/read pair is the identity at that
precision.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import ExitStack, contextmanager
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import FormatError, ValidationError
from .metrics import MatchResult, MetricsReport
from .modem import Bits, InjectionEvent, InjectionSchedule, parse_bits, validate_bits
from .signals import Peak, PeakSet, SensorTrace

SPACING_TOLERANCE = 1e-6  # s, absorbs float printing jitter
BLOCK_ROWS = 1024  # rows per formatted write; larger blocks raised peak memory, not speed

TRACE_HEADER = ["time_s", "amplitude"]
SCHEDULE_HEADER = ["start_s", "duration_s", "dose"]
PEAKS_HEADER = ["time_s", "amplitude"]
COMPARISON_HEADER = ["branch", "precision", "recall", "f1", "ber", "bsr"]


@contextmanager
def open_text(path: str | os.PathLike, newline: str | None = None) -> Iterator[TextIO]:
    """Open a UTF-8 text file for reading; bytes that are not UTF-8 raise FormatError."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


_NOT_COMMA_OR_LF = bytes(b for b in range(256) if b not in b",\n")


def _parse_plain(data: bytes, header: list[str]) -> np.ndarray | None:
    """Parse the bytes of a plain table, or return None where only csv.reader can tell.

    A plain table's first line is exactly ``header``, every line holds
    ``len(header) - 1`` commas, and its lines end in LF or CRLF, with no other
    CR (csv.reader also ends a row at a lone CR). Its cells are split a window
    of whole lines at a time and parsed in one ``np.fromiter``. A cell that
    ``float`` refuses as bytes (quoted, non-ASCII) or that is not finite
    returns None, and so does a line longer than ``csv.field_size_limit()``,
    the window's size.
    """
    head = (",".join(header) + "\n").encode()
    line = b"," * (len(header) - 1) + b"\n"
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
    if not data.endswith(b"\n"):
        data += b"\n"
    skeleton = data.translate(None, _NOT_COMMA_OR_LF)
    lines = len(skeleton) // len(line)
    if not data.startswith(head) or b"\r" in data or skeleton != line * lines:
        return None
    window = csv.field_size_limit()

    def windows() -> Iterator[list[bytes]]:
        start = len(head)
        while start < len(data):
            end = data.rfind(b"\n", start, start + window) + 1
            if end <= start:
                raise ValueError("line longer than the csv field size limit")
            yield data[start : end - 1].replace(b"\n", b",").split(b",")
            start = end

    try:
        cells = map(float, chain.from_iterable(windows()))
        table = np.fromiter(cells, float, (lines - 1) * len(header))
    except ValueError:
        return None
    return table.reshape(lines - 1, len(header)) if np.isfinite(table).all() else None


def _read_table(path: str | os.PathLike, header: list[str]) -> np.ndarray:
    """Read a numeric CSV with the given header row into a (rows, columns) array.

    Every cell must hold a finite number; an error names the file, the row
    (the header is row 1) and, for a bad cell, the column. A plain table is
    parsed from its bytes; any other text is read again with csv.reader and
    checked one row and cell at a time.
    """
    with open(path, "rb") as fh:
        table = _parse_plain(fh.read(), header)
    if table is not None:
        return table
    with open_text(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise FormatError(f"{path}: file is empty, expected header {','.join(header)}")
    found = [c.strip() for c in rows[0]]
    if found != header:
        raise FormatError(f"{path}: bad header {','.join(found)!r}, expected {','.join(header)!r}")
    body = rows[1:]
    if set(map(len, body)) <= {len(header)}:
        cells = map(float, chain.from_iterable(body))
        try:
            table = np.fromiter(cells, float, len(body) * len(header))
        except ValueError:
            pass
        else:
            if np.isfinite(table).all():
                return table.reshape(len(body), len(header))
    # The whole-table parse failed: find the first bad row, in file order.
    for i, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise FormatError(f"{path}: row {i}: expected {len(header)} columns, got {len(row)}")
        for column, value in zip(header, row):
            try:
                number = float(value)
            except ValueError:
                raise FormatError(
                    f"{path}: row {i}, column {column!r}: cannot parse {value!r} as a number"
                ) from None
            if not math.isfinite(number):
                raise FormatError(f"{path}: row {i}, column {column!r}: {value!r} is not finite")


def _write_table(
    paths: Sequence[str | os.PathLike],
    header: list[str],
    row_format: str,
    rows: Iterable[Sequence],
    column_format: str = "",
    columns: Sequence[Iterable] = (),
) -> None:
    """Write to each of ``paths`` a header row, then one line per row.

    A line is the %-style ``row_format`` over the row, the same in every file.
    With ``columns`` (one per path, one value per row), ``column_format`` over
    that path's value ends it, and ``row_format`` must print no ``%`` sign.
    Rows are taken ``BLOCK_ROWS`` at a time: a block's shared text is one
    %-format of the repeated line, each path's text one more over its column
    values, and each is one write.
    """
    line = row_format + column_format.replace("%", "%%") + "\n"
    rows = iter(rows)
    columns = [iter(c) for c in columns]
    with ExitStack() as stack:
        files = [stack.enter_context(open(p, "w", encoding="utf-8", newline="\n")) for p in paths]
        for fh in files:
            fh.write(",".join(header) + "\n")
        while block := list(islice(rows, BLOCK_ROWS)):
            text = line * len(block) % tuple(chain.from_iterable(block))
            texts = [text % tuple(islice(c, len(block))) for c in columns] or [text] * len(files)
            for fh, text in zip(files, texts):
                fh.write(text)


def read_trace(path: str | os.PathLike) -> SensorTrace:
    """Read a `time_s,amplitude` CSV, validating uniform sample spacing."""
    table = _read_table(path, TRACE_HEADER)
    if len(table) == 0:
        raise FormatError(f"{path}: no data rows (empty trace file)")
    if len(table) < 2:
        raise FormatError(f"{path}: at least two rows are needed to infer the sample interval")
    times = table[:, 0]
    dt = float(times[1] - times[0])
    if not dt > 0:
        raise FormatError(f"{path}: row 3: times must be strictly ascending")
    steps = np.diff(times)
    bad = np.flatnonzero(np.abs(steps - dt) > SPACING_TOLERANCE)
    if bad.size:
        k = bad[0]
        raise FormatError(
            f"{path}: row {k + 3}: non-uniform sample spacing "
            f"({steps[k]:.6g} s vs expected {dt:.6g} s)"
        )
    return SensorTrace(sample_interval=dt, t0=float(times[0]), samples=table[:, 1].copy())


def _values(x: np.ndarray) -> Iterator[float]:
    """The array's values as Python floats, converted a block at a time: a
    whole-trace tolist() raises peak memory."""
    return chain.from_iterable(x[a : a + BLOCK_ROWS].tolist() for a in range(0, len(x), BLOCK_ROWS))


def write_traces(traces: Mapping[str | os.PathLike, SensorTrace]) -> None:
    """Write each trace to its path; the time column is formatted once for all of them.

    The traces must share ``t0``, ``sample_interval`` and length, or a
    ValidationError is raised before any file is opened.
    """
    bases = {(t.t0, t.sample_interval, len(t)) for t in traces.values()}
    if len(bases) != 1:
        raise ValidationError(f"traces written together must share t0, sample_interval and "
                              f"length; got {sorted(bases)}")
    times = _values(next(iter(traces.values())).bin_starts())
    _write_table(list(traces), TRACE_HEADER, "%.6f,", zip(times), "%.9g",
                 [_values(t.samples) for t in traces.values()])


def write_trace(trace: SensorTrace, path: str | os.PathLike) -> None:
    write_traces({path: trace})


def read_schedule(path: str | os.PathLike) -> InjectionSchedule:
    events = tuple(InjectionEvent(*row) for row in _read_table(path, SCHEDULE_HEADER).tolist())
    span = events[-1].start + events[-1].duration if events else 0.0
    try:
        return InjectionSchedule(events, span)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_schedule(schedule: InjectionSchedule, path: str | os.PathLike) -> None:
    _write_table([path], SCHEDULE_HEADER, "%.6f,%.6f,%.9g", schedule.events)


def read_peaks(path: str | os.PathLike) -> PeakSet:
    peaks = tuple(Peak(*row) for row in _read_table(path, PEAKS_HEADER).tolist())
    try:
        return PeakSet(peaks)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_peaks(peaks: PeakSet, path: str | os.PathLike) -> None:
    _write_table([path], PEAKS_HEADER, "%.6f,%.9g", peaks.peaks)


def write_comparison(reports: Mapping[str, MetricsReport], path: str | os.PathLike) -> None:
    """Write one `branch,precision,recall,f1,ber,bsr` row per branch, in mapping order."""
    rows = ((name, r.precision, r.recall, r.f1, r.ber, r.bsr) for name, r in reports.items())
    _write_table([path], COMPARISON_HEADER, "%s" + ",%.9g" * 5, rows)


def read_bits(path: str | os.PathLike) -> Bits:
    """Read a bit string: one line of 0/1 characters, no separators."""
    with open_text(path) as fh:
        text = fh.read().strip()
    try:
        return parse_bits(text, str(path))
    except ValidationError as exc:
        raise FormatError(str(exc)) from None


def write_bits(bits: Sequence[int], path: str | os.PathLike) -> None:
    bits = validate_bits(bits)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(str(b) for b in bits) + "\n")


def write_report(
    fh: TextIO,
    match: MatchResult,
    report: MetricsReport,
    extra: Sequence[tuple[str, object]] = (),
) -> None:
    """Write a `key,value` report: the nine metric rows, then ``extra`` rows.

    Values are CSV-quoted where needed, so a value holding a comma stays one
    field.
    """
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows([
        ("tp", match.tp),
        ("fp", match.fp),
        ("fn", match.fn),
        ("precision", f"{report.precision:.9g}"),
        ("recall", f"{report.recall:.9g}"),
        ("f1", f"{report.f1:.9g}"),
        ("ber", f"{report.ber:.9g}"),
        ("bsr", f"{report.bsr:.9g}"),
        ("peaks_total", report.peaks_total),
        *extra,
    ])
