"""CSV serialization of traces, schedules, peaks, bits, and reports.

All files are comma-separated UTF-8 with LF line endings and a `.` decimal
point. Times are printed with 6 decimals, amplitudes/doses with 9
significant digits; every write/read pair is the identity at that
precision.
"""

from __future__ import annotations

import csv
import os
from typing import Sequence, TextIO

import numpy as np

from .errors import FormatError, ValidationError
from .metrics import MatchResult, MetricsReport
from .modem import Bits, InjectionEvent, InjectionSchedule, parse_bits, validate_bits
from .signals import Peak, PeakSet, SensorTrace

SPACING_TOLERANCE = 1e-6  # s, absorbs float printing jitter

TRACE_HEADER = ["time_s", "amplitude"]
SCHEDULE_HEADER = ["start_s", "duration_s", "dose"]
PEAKS_HEADER = ["time_s", "amplitude"]


def _read_rows(path: str | os.PathLike, expected_header: list[str]) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise FormatError(f"{path}: file is empty, expected header {','.join(expected_header)}")
    header = [c.strip() for c in rows[0]]
    if header != expected_header:
        raise FormatError(
            f"{path}: bad header {','.join(header)!r}, expected {','.join(expected_header)!r}"
        )
    return rows[1:]


def _parse_float(path, value: str, row: int, column: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise FormatError(
            f"{path}: row {row}, column {column!r}: cannot parse {value!r} as a number"
        ) from None


def read_trace(path: str | os.PathLike) -> SensorTrace:
    """Read a `time_s,amplitude` CSV, validating uniform sample spacing."""
    rows = _read_rows(path, TRACE_HEADER)
    if not rows:
        raise FormatError(f"{path}: no data rows (empty trace file)")
    if len(rows) < 2:
        raise FormatError(f"{path}: at least two rows are needed to infer the sample interval")
    times = []
    amps = []
    for i, row in enumerate(rows, start=2):  # 1-based file rows, header is row 1
        if len(row) != 2:
            raise FormatError(f"{path}: row {i}: expected 2 columns, got {len(row)}")
        times.append(_parse_float(path, row[0], i, "time_s"))
        amps.append(_parse_float(path, row[1], i, "amplitude"))
    dt = times[1] - times[0]
    if not dt > 0:
        raise FormatError(f"{path}: row 3: times must be strictly ascending")
    for i in range(2, len(times)):
        if abs(times[i] - times[i - 1] - dt) > SPACING_TOLERANCE:
            raise FormatError(
                f"{path}: row {i + 2}: non-uniform sample spacing "
                f"({times[i] - times[i - 1]:.6g} s vs expected {dt:.6g} s)"
            )
    return SensorTrace(sample_interval=dt, t0=times[0], samples=np.array(amps))


def write_trace(trace: SensorTrace, path: str | os.PathLike) -> None:
    starts = trace.bin_starts()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        for t, a in zip(starts, trace.samples):
            fh.write(f"{t:.6f},{a:.9g}\n")


def read_schedule(path: str | os.PathLike) -> InjectionSchedule:
    rows = _read_rows(path, SCHEDULE_HEADER)
    events = []
    for i, row in enumerate(rows, start=2):
        if len(row) != 3:
            raise FormatError(f"{path}: row {i}: expected 3 columns, got {len(row)}")
        start = _parse_float(path, row[0], i, "start_s")
        duration = _parse_float(path, row[1], i, "duration_s")
        dose = _parse_float(path, row[2], i, "dose")
        events.append(InjectionEvent(start, duration, dose))
    span = events[-1].start + events[-1].duration if events else 0.0
    try:
        return InjectionSchedule(tuple(events), span)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_schedule(schedule: InjectionSchedule, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(SCHEDULE_HEADER) + "\n")
        for e in schedule.events:
            fh.write(f"{e.start:.6f},{e.duration:.6f},{e.dose:.9g}\n")


def read_peaks(path: str | os.PathLike) -> PeakSet:
    rows = _read_rows(path, PEAKS_HEADER)
    peaks = []
    for i, row in enumerate(rows, start=2):
        if len(row) != 2:
            raise FormatError(f"{path}: row {i}: expected 2 columns, got {len(row)}")
        t = _parse_float(path, row[0], i, "time_s")
        a = _parse_float(path, row[1], i, "amplitude")
        peaks.append(Peak(t, a))
    try:
        return PeakSet(tuple(peaks))
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_peaks(peaks: PeakSet, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(PEAKS_HEADER) + "\n")
        for p in peaks.peaks:
            fh.write(f"{p.time:.6f},{p.amplitude:.9g}\n")


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
