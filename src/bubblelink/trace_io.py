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
from itertools import chain, islice
from typing import Iterable, Mapping, Sequence, TextIO

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


def _read_table(path: str | os.PathLike, header: list[str]) -> np.ndarray:
    """Read a numeric CSV with the given header row into a (rows, columns) array.

    Every cell must hold a finite number; an error names the file, the row
    (the header is row 1) and, for a bad cell, the column.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
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
    path: str | os.PathLike, header: list[str], row_format: str, rows: Iterable[Sequence]
) -> None:
    """Write a header row, then one %-style ``row_format`` line per row.

    Rows are taken ``BLOCK_ROWS`` at a time; each block is one %-format of
    the repeated line over its flattened values and one write.
    """
    line = row_format + "\n"
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while block := list(islice(rows, BLOCK_ROWS)):
            fh.write(line * len(block) % tuple(chain.from_iterable(block)))


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


def write_trace(trace: SensorTrace, path: str | os.PathLike) -> None:
    # converted to Python floats a block at a time: a whole-trace tolist() raises peak memory
    times, samples = trace.bin_starts(), trace.samples
    rows = chain.from_iterable(
        zip(times[a : a + BLOCK_ROWS].tolist(), samples[a : a + BLOCK_ROWS].tolist())
        for a in range(0, len(samples), BLOCK_ROWS)
    )
    _write_table(path, TRACE_HEADER, "%.6f,%.9g", rows)


def read_schedule(path: str | os.PathLike) -> InjectionSchedule:
    events = tuple(InjectionEvent(*row) for row in _read_table(path, SCHEDULE_HEADER).tolist())
    span = events[-1].start + events[-1].duration if events else 0.0
    try:
        return InjectionSchedule(events, span)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_schedule(schedule: InjectionSchedule, path: str | os.PathLike) -> None:
    _write_table(path, SCHEDULE_HEADER, "%.6f,%.6f,%.9g", schedule.events)


def read_peaks(path: str | os.PathLike) -> PeakSet:
    peaks = tuple(Peak(*row) for row in _read_table(path, PEAKS_HEADER).tolist())
    try:
        return PeakSet(peaks)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_peaks(peaks: PeakSet, path: str | os.PathLike) -> None:
    _write_table(path, PEAKS_HEADER, "%.6f,%.9g", peaks.peaks)


def write_comparison(reports: Mapping[str, MetricsReport], path: str | os.PathLike) -> None:
    """Write one `branch,precision,recall,f1,ber,bsr` row per branch, in mapping order."""
    rows = ((name, r.precision, r.recall, r.f1, r.ber, r.bsr) for name, r in reports.items())
    _write_table(path, COMPARISON_HEADER, "%s" + ",%.9g" * 5, rows)


def read_bits(path: str | os.PathLike) -> Bits:
    """Read a bit string: one line of 0/1 characters, no separators."""
    with open(path, "r", encoding="utf-8") as fh:
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
