"""CSV serialization of traces, schedules, peaks, bits, and reports.

All files are comma-separated UTF-8 with LF line endings and a `.` decimal
point. Times are printed with 6 decimals, amplitudes/doses with 9
significant digits; every write/read pair is the identity at that
precision.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
import sys
from contextlib import ExitStack, contextmanager, suppress
from itertools import chain
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import FormatError, ValidationError
from .metrics import MatchResult, MetricsReport
from .modem import Bits, InjectionEvent, InjectionSchedule, parse_bits, validate_bits
from .signals import PeakSet, SensorTrace

SPACING_TOLERANCE = 1e-6  # s, absorbs float printing jitter

# Trace rows are formatted in blocks of BLOCK_ROWS by numpy into a matrix of
# uint32 words, each four bytes of a row's text, and NUL bytes, which mark
# unused cells, are deleted before the block is written. A number is
# formatted there only where its correctly rounded digits are certain; the
# others get Python's own %-format, spliced into their row's cells.
BLOCK_ROWS = 8192
_TIME_WORDS = 5  # sign and 1e8 digit, two words of integer digits, ".ddd", "ddd"
_VALUE_WORDS = 8  # ",", sign and 1e8 digit, two integer words, ".", three fraction words, LF
_DIGITS = 10_000  # entries of each 4-digit word table
_TRAIL, _LEAD, _PLAIN = range(3)  # rows of _digit_words()
# A rounding is certain if the product lies this far (relative) from the
# midpoint between integers: 32 times the error of one float multiply.
_CERTAIN = 2.0**-48
# 10**(8 - e) at index e + _SCALE_E0 for the exponents -4..8 of %g's fixed
# notation, else 0, over every exponent of a finite double
_SCALE_E0 = 324
_SCALE = np.zeros(_SCALE_E0 + 309)
_SCALE[_SCALE_E0 - 4 : _SCALE_E0 + 9] = 10 ** np.arange(12, -1, -1)  # exact as doubles

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


# The bytes a table body may hold to be read by np.loadtxt: no letter to
# spell inf or nan, and no whitespace but the space and tab, which it and
# float both strip around a number.
_NUMERIC = b'0123456789+-.eE,"\r\n \t'


def _numeric_lines(fh: BinaryIO) -> int:
    """The number of lines left in ``fh``, or 0 if they are all blank or hold a
    byte not in ``_NUMERIC``. The file is read in chunks, never held whole."""
    lines, blank, end = 0, True, b"\n"
    for chunk in iter(functools.partial(fh.read, 1 << 16), b""):
        if chunk.translate(None, _NUMERIC):
            return 0
        lines += chunk.count(b"\n")
        blank = blank and not chunk.lstrip(b"\r\n")
        end = chunk[-1:]
    return 0 if blank else lines + (end != b"\n")


def _is_header(line: bytes, header: list[str]) -> bool:
    """Whether csv.reader reads ``line`` on its own as the one row ``header``, such as a
    quoted header; a header line that ends in CR CR LF is the header and a blank row."""
    with suppress(UnicodeDecodeError, csv.Error):  # strict: a quote left open is an error
        rows = list(csv.reader(io.StringIO(line.decode(), newline=""), strict=True))
        return len(rows) == 1 and [cell.strip() for cell in rows[0]] == header
    return False


def _read_table(path: str | os.PathLike, header: list[str]) -> np.ndarray:
    """Read a numeric CSV with the given header row into a (rows, columns) array.

    Every cell must hold a finite number; an error names the file, the row
    (the header is row 1) and, for a bad cell, the column. np.loadtxt reads a
    file whose first line is the header, its exact bytes or else a line that
    ``_is_header``, and whose body ``_numeric_lines`` counts; its table is kept
    if it has a row per body line (np.loadtxt skips blank lines and joins
    quoted line ends), ``len(header)`` columns and only finite numbers. Any
    other file is read and checked row by row with csv.reader.
    """
    head = ",".join(header).encode()
    with open(path, "rb") as fh:
        first = fh.readline()
        if first in (head + b"\n", head + b"\r\n") or _is_header(first, header):
            start = fh.tell()
            if lines := _numeric_lines(fh):
                fh.seek(start)
                with suppress(ValueError):
                    table = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                                       ndmin=2, encoding="utf-8")
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
    """Read a `time_s,amplitude` CSV, validating uniform sample spacing."""
    table = _read_table(path, TRACE_HEADER)
    if len(table) == 0:
        raise FormatError(f"{path}: no data rows (empty trace file)")
    if len(table) < 2:
        raise FormatError(f"{path}: at least two rows are needed to infer the sample interval")
    times = table[:, 0]
    t0, t1 = times[:2].tolist()
    if not t1 > t0:
        raise FormatError(f"{path}: row 3: times must be strictly ascending")
    trace = _build(path, SensorTrace, t1 - t0, t0, table[:, 1].copy())
    with np.errstate(over="ignore"):  # a step that overflows is as non-uniform as any
        steps = np.diff(times)
        bad = np.flatnonzero(np.abs(steps - trace.sample_interval) > SPACING_TOLERANCE)
    if bad.size:
        k = bad[0]
        raise FormatError(
            f"{path}: row {k + 3}: non-uniform sample spacing "
            f"({steps[k]:.6g} s vs expected {trace.sample_interval:.6g} s)"
        )
    return trace


def _word(text: bytes) -> int:
    """The uint32 whose bytes in memory are ``text``, padded with NUL."""
    return int.from_bytes(text.ljust(4, b"\0"), sys.byteorder)


@functools.cache
def _digit_words() -> np.ndarray:
    """The 4-digit texts of 0..9999 as uint32 words, a row per style (``_TRAIL``,
    ``_LEAD``, ``_PLAIN``): "%04d" with trailing zeros as NUL (0 is all NUL),
    with leading zeros as NUL (0 is "0"), and as it is."""
    n = np.arange(_DIGITS, dtype=np.int16)[:, None]
    place = 10 ** np.arange(3, -1, -1, dtype=np.int16)
    text = (n // place % 10 + ord("0")).astype(np.uint8)
    trail = np.where(n % (10 * place) == 0, 0, text)
    lead = np.where((n >= place) | (place == 1), text, 0)
    words = np.stack([trail, lead, text]).view(np.uint32).reshape(3, _DIGITS)
    words.setflags(write=False)
    return words


def _integer_words(n: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three words of the whole numbers ``n`` (floats below 1e9), no leading zeros.

    A word's style, its row of ``_digit_words()`` (flattened in ``words``), is
    ``_PLAIN`` after a nonzero group of digits, ``_LEAD`` for the first one and
    for the last word (0 is "0"), else ``_TRAIL`` (0 is all NUL). The first
    word holds at most the digit of 1e8, in its last byte, so the caller can
    put a sign in its first bytes. Up to 1e12 the words are still table
    entries, for rows a caller splices over.
    """
    hi, q = np.floor(n / 1e8), np.floor(n / 1e4)
    has_hi, has_q = np.minimum(hi, 1.0), np.minimum(q, 1.0)  # 1.0 where digits precede
    return (  # styles 0, 1, 2 are _TRAIL, _LEAD, _PLAIN
        _take(words, hi + _LEAD * _DIGITS * has_hi),
        _take(words, q - hi * 1e4 + _DIGITS * (has_hi + has_q)),
        _take(words, n - q * 1e4 + _DIGITS * (_LEAD + has_q)),
    )


def _take(words: np.ndarray, index: np.ndarray) -> np.ndarray:
    return words.take(index.astype(np.intp))


def _splice(out: np.ndarray, rows: np.ndarray, row_format: bytes, x: np.ndarray) -> None:
    """Overwrite the ``rows`` (columns of ``out``) with ``row_format`` over their values."""
    if rows.size:
        width = 4 * len(out)
        text = b"".join((row_format % y).ljust(width, b"\0") for y in x[rows].tolist())
        out[:, rows] = np.frombuffer(text, np.uint32).reshape(rows.size, len(out)).T


# Both formatters fill ``out``, which holds a row of words per output word
# and a column per number, and then splice in the numbers they could not
# format. All digit arithmetic is on whole numbers below 2**53 held as
# floats, where floor(n / 10**k) is exact and faster than integer division.

def _format_times(out: np.ndarray, t: np.ndarray) -> None:
    """``%.6f`` of each time, in ``_TIME_WORDS`` or more words."""
    words = _digit_words().ravel()
    s = np.fmin(np.abs(t), 1e9) * 1e6  # no rounding is certain from 1.4e8 s on, nor for NaN
    r = np.rint(s)
    certain = 0.5 - np.abs(s - r) > s * _CERTAIN
    whole = np.floor(r / 1e6)
    frac = r - whole * 1e6
    out[0], out[1], out[2] = _integer_words(whole, words)
    out[0] |= np.signbit(t).view(np.uint8) * np.uint32(_word(b"-"))
    # plain words of numbers below 1000 start with "0": make it "." and NUL
    thousands = np.floor(frac / 1e3)
    out[3] = _take(words, thousands + _PLAIN * _DIGITS) ^ _word(bytes([ord("0") ^ ord(".")]))
    out[4] = _take(words, frac - thousands * 1e3 + _PLAIN * _DIGITS) ^ _word(b"0")
    _splice(out, np.flatnonzero(~certain), b"%.6f", t)


def _value_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The whole part and twelve digits after the point of ``%.9g`` of each
    value in fixed notation, and where the kernel cannot tell that text."""
    a = np.abs(v)
    zero = a == 0  # taken as log10(1): their digits come out as "0"
    # 10**(8 - e) for the decimal exponent e of a, 0 where %g may not print fixed notation
    scale = _SCALE.take(np.floor(np.log10(a + zero)).astype(np.intp) + _SCALE_E0)
    s = a * scale  # nine digits before the point, if e is right
    r = np.rint(s)
    unit = np.maximum(scale, 1.0)
    whole = np.floor(r / unit)
    frac = (r - whole * unit) * (1e12 / unit)
    # whole == 1e9 is a carry into exponent 9, which %g prints as 1e+09
    certain = (s >= 1e8) & (s < 1e9) & (whole < 1e9) & (0.5 - np.abs(s - r) > s * _CERTAIN)
    return whole, frac, ~(certain | zero)


def _format_values(out: np.ndarray, v: np.ndarray) -> None:
    """``,%.9g`` of each value and LF, in ``_VALUE_WORDS`` words."""
    words = _digit_words().ravel()
    whole, frac, uncertain = _value_digits(v)
    out[0], out[1], out[2] = _integer_words(whole, words)
    out[0] |= np.signbit(v).view(np.uint8) * np.uint32(_word(b"\0-")) + np.uint32(_word(b","))
    out[3] = (frac != 0).view(np.uint8) * np.uint32(_word(b"."))
    # plain words while nonzero digits follow, then trailing zeros as NUL
    f1, q = np.floor(frac / 1e8), np.floor(frac / 1e4)
    f3 = frac - q * 1e4
    out[4] = _take(words, f1 + _PLAIN * _DIGITS * (frac != f1 * 1e8))
    out[5] = _take(words, q - f1 * 1e4 + _PLAIN * _DIGITS * (f3 != 0))
    out[6] = _take(words, f3)
    out[7] = _word(b"\n")
    _splice(out, np.flatnonzero(uncertain), b",%.9g\n", v)


def write_traces(traces: Mapping[str | os.PathLike, SensorTrace]) -> None:
    """Write each trace to its path; the time column is formatted once for all of them.

    The traces must share ``t0``, ``sample_interval`` and length, or a
    ValidationError is raised before any file is opened. Each file holds
    exactly the text of ``"%.6f,%.9g\n"`` over its rows.
    """
    bases = {(t.t0, t.sample_interval, len(t)) for t in traces.values()}
    if len(bases) != 1:
        raise ValidationError(f"traces written together must share t0, sample_interval and "
                              f"length; got {sorted(bases)}")
    times = next(iter(traces.values())).bin_starts()
    # rounding is monotone, so the largest |time| has the longest text
    widest = len(b"%.6f" % -np.abs(times).max(initial=0.0))
    time_words = max(_TIME_WORDS, -(-widest // 4))
    with ExitStack() as stack:
        files = [stack.enter_context(open(p, "wb")) for p in traces]
        for fh in files:
            fh.write((",".join(TRACE_HEADER) + "\n").encode())
        for a in range(0, len(times), BLOCK_ROWS):
            t = times[a : a + BLOCK_ROWS]
            block = np.zeros((time_words + _VALUE_WORDS, len(t)), np.uint32)  # a column per row
            _format_times(block[:time_words], t)
            for fh, trace in zip(files, traces.values()):
                _format_values(block[time_words:], trace.samples[a : a + BLOCK_ROWS])
                fh.write(block.T.tobytes().translate(None, b"\0"))


def write_trace(trace: SensorTrace, path: str | os.PathLike) -> None:
    write_traces({path: trace})


def read_schedule(path: str | os.PathLike) -> InjectionSchedule:
    events = tuple(InjectionEvent(*row) for row in _read_table(path, SCHEDULE_HEADER).tolist())
    span = events[-1].start + events[-1].duration if events else 0.0
    return _build(path, InjectionSchedule, events, span)


def write_schedule(schedule: InjectionSchedule, path: str | os.PathLike) -> None:
    _write_table(path, SCHEDULE_HEADER, "%.6f,%.6f,%.9g", schedule.events)


def read_peaks(path: str | os.PathLike) -> PeakSet:
    return _build(path, PeakSet, _read_table(path, PEAKS_HEADER).tolist())


def write_peaks(peaks: PeakSet, path: str | os.PathLike) -> None:
    _write_table(path, PEAKS_HEADER, "%.6f,%.9g", peaks.peaks)


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
