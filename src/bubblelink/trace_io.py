"""CSV serialization of traces, schedules, peaks, bits, and reports.

All files are comma-separated UTF-8 with LF line endings and a `.` decimal
point. Times are printed with 6 decimals, amplitudes/doses with 9
significant digits; every write/read pair is the identity at that
precision.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import sys
from contextlib import ExitStack, contextmanager, suppress
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import FormatError, ValidationError
from .metrics import MatchResult, MetricsReport
from .modem import Bits, InjectionSchedule, parse_bits, validate_bits
from .signals import PeakSet, SensorTrace

TIME_RESOLUTION = 1e-6  # s, the last decimal of a written time

# Trace rows are formatted in blocks of BLOCK_ROWS by numpy into a matrix of
# uint32 words, each four bytes of a row's text, and NUL bytes, which mark
# unused cells, are deleted before the block is written. A row is its LF, then
# the time and the value: the header is written without its LF, and one LF
# ends the file. Each field is as wide as its widest text in the block, with
# the digits at fixed places around the point and NUL where a shorter number
# has none, so a row below 10,000 s takes 7 words. numpy formats a number only
# if its sign bit is clear, a time rounds below 100,000 s and a value below 10
# (the rows that traces hold), and its correctly rounded digits are certain; any
# other number gets Python's own %-format, spliced into its row's cells. Table
# lookups clip their index, since only a spliced number can index past a table.
BLOCK_ROWS = 4096  # at 8,192 rows, page faults on each block's larger arrays made writing no faster
_DIGITS = 10_000  # entries of each 4-digit word table
_TRAIL, _LEAD, _PLAIN = range(3)  # rows of _digit_words()
# A rounding is certain if the product lies this far (relative) from the
# midpoint between integers: 32 times the error of one float multiply.
_CERTAIN = 2.0**-48
# At index e + _E0, over every exponent e of a finite double: 10**(8 - e),
# which scales a value to nine digits before the point, and 10**(e + 4), the
# place of its ninth digit in units of 1e-12, for the exponents -4..0 of the
# values below 10 that %g prints in fixed notation; else 0 and 0.
_E0 = 324
_PLACE = np.zeros((2, _E0 + 309))
_FIXED = np.arange(-4, 1, dtype=np.int64)
_PLACE[:, _E0 - 4 : _E0 + 1] = 10 ** np.stack([8 - _FIXED, _FIXED + 4])

_BIT_TEXT = bytes.maketrans(b"\0\1", b"01")  # bytes 0 and 1 as the characters "0" and "1"

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


# The bytes of a cell np.loadtxt may read: digits, sign, point and exponent, the
# separator, and the space and tab, which it and float both strip around a
# number. No letter to spell inf or nan, and no quote.
_CELL = b"0123456789+-.eE, \t"
# The suffixes for which np.loadtxt, given a path, reads through a decompressor
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _numeric_lines(fh: BinaryIO) -> int:
    """The number of lines left in ``fh``, or 0 if they are all blank, hold a byte
    that is neither in ``_CELL`` nor a line end, or hold a CR that does not start
    a CRLF: np.loadtxt reads a path with universal newlines, so a line would end
    there that the count of LFs misses. The file is read in chunks, never held
    whole, and a chunk never ends inside a CRLF."""
    lines, blank, end = 0, True, b"\n"
    for chunk in iter(functools.partial(fh.read, 1 << 16), b""):
        if chunk.endswith(b"\r"):
            chunk += fh.read(1)
        ends = chunk.translate(None, _CELL)  # only CR and LF, if the chunk is numeric
        if ends.translate(None, b"\r\n") or (
            b"\r" in ends and ends.count(b"\r") != chunk.count(b"\r\n")
        ):
            return 0
        lines += ends.count(b"\n")
        blank = blank and len(ends) == len(chunk)
        end = chunk[-1:]
    return 0 if blank else lines + (end != b"\n")


def _read_table(path: str | os.PathLike, header: list[str]) -> np.ndarray:
    """Read a numeric CSV with the given header row into a (rows, columns) array.

    Every cell must hold a finite number; an error names the file, the row
    (the header is row 1) and, for a bad cell, the column. np.loadtxt reads a
    file whose first line is the header's exact bytes and whose body
    ``_numeric_lines`` counts; its table is kept if it has a row per body line
    (np.loadtxt skips blank lines), ``len(header)`` columns and only finite
    numbers. It is given the absolute path, so that its C reader takes the file
    in blocks, not line by line, and a path that parses as a URL is never
    downloaded. Any other file, such as one with quotes or one whose suffix
    np.loadtxt would decompress, is read and checked row by row with csv.reader.
    """
    head = ",".join(header).encode()
    name = os.path.abspath(os.fsdecode(path))
    if os.path.splitext(name)[1] not in _COMPRESSED:
        with open(path, "rb") as fh:
            lines = fh.readline() in (head + b"\n", head + b"\r\n") and _numeric_lines(fh)
        if lines:
            with suppress(ValueError):
                table = np.loadtxt(name, delimiter=",", comments=None, skiprows=1, ndmin=2,
                                   encoding="utf-8")
                if table.shape == (lines, len(header)) and np.isfinite(table).all():
                    return table
    with open_text(path, newline="") as fh:
        rows, cells, i = csv.reader(fh), [], 0  # i: the rows read so far
        try:
            first = next(rows, None)
            i = 1
            if first is None:
                raise FormatError(f"{path}: file is empty, expected header {','.join(header)}")
            if (found := [c.strip() for c in first]) != header:
                expected = ",".join(header)
                raise FormatError(f"{path}: bad header {','.join(found)!r}, expected {expected!r}")
            for i, row in enumerate(rows, start=2):
                if len(row) != len(header):
                    raise FormatError(
                        f"{path}: row {i}: expected {len(header)} columns, got {len(row)}"
                    )
                for column, value in zip(header, row):
                    try:
                        number = float(value)
                    except ValueError:
                        raise FormatError(f"{path}: row {i}, column {column!r}: "
                                          f"cannot parse {value!r} as a number") from None
                    if not math.isfinite(number):
                        raise FormatError(
                            f"{path}: row {i}, column {column!r}: {value!r} is not finite"
                        )
                    cells.append(number)
        except csv.Error as exc:  # such as a cell longer than csv.field_size_limit()
            raise FormatError(f"{path}: row {i + 1}: {exc}") from None
    return np.array(cells).reshape(-1, len(header))


def _write_table(
    path: str | os.PathLike, header: list[str], row_format: str, rows: Iterable[Sequence]
) -> None:
    """Write a header row, then the %-style ``row_format`` over each row and LF.

    The whole table is one %-format of the repeated line over the flattened
    rows: it serves the small tables, not traces.
    """
    rows = list(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((row_format + "\n") * len(rows) % tuple(chain.from_iterable(rows)))


def _build(path: str | os.PathLike, make: Callable, *args):
    """``make(*args)`` for a table read from ``path``; a ValidationError becomes a
    FormatError that names the file."""
    try:
        return make(*args)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_trace(path: str | os.PathLike) -> SensorTrace:
    """Read a `time_s,amplitude` CSV, validating uniform sample spacing.

    Times rounded to ``TIME_RESOLUTION`` put each step within one resolution
    of the true interval, so two steps can differ by two. A step that is not
    positive or is further than 2.5 from the first is refused, which names
    the row of a missing sample. The interval is the first step if its clock
    reaches the last time within half a resolution, as whole microseconds do;
    otherwise it is the span over the steps, whose clock does not drift.
    """
    table = _read_table(path, TRACE_HEADER)
    if len(table) == 0:
        raise FormatError(f"{path}: no data rows (empty trace file)")
    if len(table) < 2:
        raise FormatError(f"{path}: at least two rows are needed to infer the sample interval")
    times = table[:, 0]
    t0, t1, last = times[[0, 1, -1]].tolist()
    if not t1 > t0:
        raise FormatError(f"{path}: row 3: times must be strictly ascending")
    first, n = t1 - t0, len(times)
    # a step that overflows is as non-uniform as any; if the first does, SensorTrace refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(times)
        bad = np.flatnonzero((np.abs(steps - first) > 2.5 * TIME_RESOLUTION) | (steps <= 0))
    if bad.size:
        k = bad[0]
        raise FormatError(
            f"{path}: row {k + 3}: non-uniform sample spacing "
            f"({steps[k]:.6g} s vs expected {first:.6g} s)"
        )
    fits = abs(t0 + (n - 1) * first - last) <= 0.5 * TIME_RESOLUTION
    interval = first if fits else (last - t0) / (n - 1)
    return _build(path, SensorTrace, interval, t0, table[:, 1].copy())


def _word(text: bytes) -> int:
    """The uint32 whose bytes in memory are ``text``, padded with NUL."""
    return int.from_bytes(text.ljust(4, b"\0"), sys.byteorder)


@functools.cache
def _digit_words() -> np.ndarray:
    """The 4-digit texts of 0..9999 as uint32 words, a row per style (``_TRAIL``,
    ``_LEAD``, ``_PLAIN``): "%04d" with trailing zeros as NUL, with leading
    zeros as NUL (0 is all NUL in both), and as it is."""
    n = np.arange(_DIGITS, dtype=np.int16)[:, None]
    place = 10 ** np.arange(3, -1, -1, dtype=np.int16)
    text = (n // place % 10 + ord("0")).astype(np.uint8)
    trail = np.where(n % (10 * place) == 0, 0, text)
    lead = np.where(n >= place, text, 0)
    words = np.stack([trail, lead, text]).view(np.uint32).reshape(3, _DIGITS)
    words.setflags(write=False)
    return words


@functools.cache
def _point_words() -> tuple[np.ndarray, np.ndarray]:
    """The words that hold a number's units digit and its point.

    For times, "u.dd" at ``u * 100 + dd``. For values, at ``more * 100 + u *
    10 + d``: NUL, the units digit ``u``, then the point and first decimal
    ``d``, NUL where ``d`` and ``more``, the flag of later decimals, are 0.
    """
    times = b"".join(b"%d.%02d" % divmod(k, 100) for k in range(1000))
    values = b"".join(
        b"\0%d" % u + (b".%d" % d if d or more else b"\0\0")
        for more in (0, 1) for u in range(10) for d in range(10)
    )
    return np.frombuffer(times, np.uint32), np.frombuffer(values, np.uint32)


def _splice(out: np.ndarray, rows: np.ndarray, texts: list[bytes]) -> None:
    """Overwrite the ``rows`` (columns of ``out``) with their ``texts``."""
    if rows.size:
        text = b"".join(x.ljust(4 * len(out), b"\0") for x in texts)
        out[:, rows] = np.frombuffer(text, np.uint32).reshape(rows.size, len(out)).T


def _time_words(t: np.ndarray) -> np.ndarray:
    """LF and ``%.6f`` of each time, in a matrix with a row per word and a
    column per time. Its width is that of the block's widest text, which, as
    times ascend and rounding is monotone, is the first or last time's."""
    widest = max(len(b"%.6f" % x) for x in (t[0], t[-1]))
    out = np.empty((max(3, widest // 4 + 1), len(t)), np.uint32)
    s = np.fmin(np.abs(t), 1e5) * 1e6  # a time that rounds to 100,000 s or more is spliced
    r = np.rint(s)
    n = r.astype(np.int64)
    high = n // 10**7  # the whole seconds but their units digit
    low = (n - high * 10**7).astype(np.int32)
    point = low // 10**4
    out[:-3] = 0
    _digit_words()[_LEAD].take(high, out=out[-3], mode="clip")
    out[0] |= np.uint32(_word(b"\n"))
    _point_words()[0].take(point, out=out[-2], mode="clip")
    _digit_words()[_PLAIN].take(low - point * 10**4, out=out[-1], mode="clip")
    rows = np.flatnonzero((0.5 - np.abs(s - r) <= s * _CERTAIN) | np.signbit(t) | (r >= 1e11))
    _splice(out, rows, [b"\n%.6f" % x for x in t[rows].tolist()])
    return out


def _trace_block(time_words: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``time_words`` over the words of "," and ``%.9g`` of each value.

    numpy formats a value in [0, 10) whose sign bit is clear and leaves any
    other to ``_splice``. The field ends in a word of a NUL (the comma's byte),
    the units digit, the point and decimal 1, then three words of decimals 2-12.
    """
    x = np.fmax(v, 1e-320)  # the exponent of zero and of a negative is out of range
    np.log10(x, out=x)
    x += _E0
    i = x.astype(np.intp)  # e + _E0 for the decimal exponent e
    s = _PLACE[0].take(i)
    s *= v  # nine digits before the point, if e is right
    r = np.rint(s)
    # a carry into exponent 1 prints "10"; +0.0's digits come out as "0"
    certain = (s >= 1e8) & (s < 999_999_999.5) & (0.5 - np.abs(s - r) > s * _CERTAIN)
    certain |= (v == 0) & ~np.signbit(v)
    rows = np.flatnonzero(~certain)
    texts = [b",%.9g" % y for y in v[rows].tolist()]
    r *= _PLACE[1].take(i)
    n = r.astype(np.int64)  # the units digit and 12 decimals
    width = max(4, (max(map(len, texts), default=0) + 3) // 4)
    block = np.empty((len(time_words) + width, len(v)), np.uint32)
    block[: len(time_words)] = time_words
    out = block[len(time_words) :]
    n7 = n // 10**7
    low = (n - n7 * 10**7).astype(np.int32)  # decimals 6-12
    n7 = n7.astype(np.int32)
    point = n7 // 10**4  # the units digit and decimal 1
    d2 = n7 - point * 10**4  # decimals 2-5
    d6 = low // 1000
    d10 = low - d6 * 1000
    words = _digit_words().ravel()
    # plain words while nonzero digits follow, then trailing zeros as NUL
    words.take(d2 + np.sign(low) * (_PLAIN * _DIGITS), out=out[-3], mode="clip")
    words.take(d6 + np.sign(d10) * (_PLAIN * _DIGITS), out=out[-2], mode="clip")
    words.take(d10 * 10, out=out[-1], mode="clip")
    out[:-4] = 0
    _point_words()[1].take(point + np.sign(d2 | low) * 100, out=out[-4], mode="clip")
    out[0] |= np.uint32(_word(b","))
    _splice(out, rows, texts)
    return block


def write_traces(traces: Mapping[str | os.PathLike, SensorTrace]) -> None:
    """Write each trace to its path; the time column is formatted once for all of them.

    The traces must share ``t0``, ``sample_interval`` and length, or a
    ValidationError is raised before any file is opened. Each file holds
    exactly the text of ``"%.6f,%.9g\n"`` over its rows, written with each
    row's LF before it: the header goes without its LF, and one LF ends the file.
    """
    bases = {(t.t0, t.sample_interval, len(t)) for t in traces.values()}
    if len(bases) != 1:
        raise ValidationError(f"traces written together must share t0, sample_interval and "
                              f"length; got {sorted(bases)}")
    times = next(iter(traces.values())).bin_starts()
    with ExitStack() as stack:
        files = [stack.enter_context(open(p, "wb")) for p in traces]
        for fh in files:
            fh.write(",".join(TRACE_HEADER).encode())
        for a in range(0, len(times), BLOCK_ROWS):
            time_words = _time_words(times[a : a + BLOCK_ROWS])
            for fh, trace in zip(files, traces.values()):
                block = _trace_block(time_words, trace.samples[a : a + BLOCK_ROWS])
                fh.write(block.T.tobytes().translate(None, b"\0"))
        for fh in files:
            fh.write(b"\n")


def write_trace(trace: SensorTrace, path: str | os.PathLike) -> None:
    write_traces({path: trace})


def read_schedule(path: str | os.PathLike) -> InjectionSchedule:
    table = _read_table(path, SCHEDULE_HEADER)
    span = float(table[-1, 0] + table[-1, 1]) if len(table) else 0.0
    return _build(path, InjectionSchedule, table, span)


def write_schedule(schedule: InjectionSchedule, path: str | os.PathLike) -> None:
    _write_table(path, SCHEDULE_HEADER, "%.6f,%.6f,%.9g", schedule.table.tolist())


def read_peaks(path: str | os.PathLike) -> PeakSet:
    return _build(path, PeakSet, _read_table(path, PEAKS_HEADER))


def write_peaks(peaks: PeakSet, path: str | os.PathLike) -> None:
    _write_table(path, PEAKS_HEADER, "%.6f,%.9g", peaks.table.tolist())


def write_comparison(reports: Mapping[str, MetricsReport], path: str | os.PathLike) -> None:
    """Write one `branch,precision,recall,f1,ber,bsr` row per branch, in mapping order."""
    rows = ((name, r.precision, r.recall, r.f1, r.ber, r.bsr) for name, r in reports.items())
    _write_table(path, COMPARISON_HEADER, "%s" + ",%.9g" * 5, rows)


def read_bits(path: str | os.PathLike) -> Bits:
    """Read a bit string: one line of 0/1 characters, no separators."""
    with open_text(path) as fh:
        text = fh.read().strip()
    try:
        return parse_bits(text, str(path))
    except ValidationError as exc:
        raise FormatError(str(exc)) from None


def write_bits(bits: Sequence[int], path: str | os.PathLike) -> None:
    """Write ``bits``, checked by ``validate_bits``, as one line of 0/1 characters."""
    text = bytes(validate_bits(bits)).translate(_BIT_TEXT)
    with open(path, "wb") as fh:
        fh.write(text + b"\n")


def write_report(
    fh: TextIO,
    match: MatchResult,
    report: MetricsReport,
    extra: Sequence[tuple[str, object]] = (),
) -> None:
    """Write a `key,value` report: the nine metric rows, then ``extra`` rows.

    A float value is printed as ``%.9g`` and any other value with ``str``. Values
    are CSV-quoted where needed, so a value holding a comma stays one field.
    """
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows((key, f"{value:.9g}" if isinstance(value, float) else value) for key, value in [
        ("tp", match.tp),
        ("fp", match.fp),
        ("fn", match.fn),
        ("precision", report.precision),
        ("recall", report.recall),
        ("f1", report.f1),
        ("ber", report.ber),
        ("bsr", report.bsr),
        ("peaks_total", report.peaks_total),
        *extra,
    ])
