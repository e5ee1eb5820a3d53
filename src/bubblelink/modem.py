"""Time-based OOK modem: bits to injection schedules and back.

Every bit occupies one frame of ``T_sym = t_on + t_off`` seconds. A binary
1 injects a microbubble bolus for ``t_on`` seconds at the frame start; a
binary 0 leaves the frame idle. The receiver reads the frames back in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .signals import PeakSet, float_table, named_rows

Bits = list[int]


@dataclass(frozen=True)
class TimingParams:
    """OOK symbol clock: injection and idle durations in seconds."""

    t_on: float
    t_off: float

    def __post_init__(self):
        for name in ("t_on", "t_off", "symbol_duration"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if not (self.t_on > 0 and self.t_off > 0):
            raise ValidationError("t_on and t_off must be positive")
        if self.t_off < self.t_on:
            raise ValidationError(
                "t_off must be >= t_on (idle period at least as long as injection)"
            )

    @property
    def symbol_duration(self) -> float:
        """Full frame length t_on + t_off in seconds."""
        return self.t_on + self.t_off


class InjectionEvent(NamedTuple):
    start: float
    duration: float
    dose: float


@dataclass(frozen=True)
class InjectionSchedule:
    """Transmitter-side list of timed, non-overlapping bolus injections.

    ``events`` may be given as (start, duration, dose) triples or as an (n, 3)
    array; it is kept as a tuple of InjectionEvent, and ``table`` holds the same
    (n, 3) floats.
    """

    events: tuple[InjectionEvent, ...]
    total_span: float
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = float_table(self.events, 3)
        start, duration, dose = table.T
        # each event's checks in this order, then each neighbour pair's: the first failure raises
        _raise_first(
            [~np.isfinite(table).all(axis=1), ~(dose > 0), ~(duration > 0)],
            ["event start, duration and dose must be finite", "event dose must be positive",
             "event duration must be positive"],
        )
        _raise_first(
            [~(start[1:] > start[:-1]), start[:-1] + duration[:-1] > start[1:] + 1e-12],
            ["events must be sorted strictly ascending by start", "events must not overlap"],
        )
        if self.total_span < 0:
            raise ValidationError("total_span must be non-negative")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "events", named_rows(InjectionEvent, table))

    def __len__(self) -> int:
        return len(self.table)

    def shifted(self, offset: float) -> "InjectionSchedule":
        """Schedule with every event start moved by ``offset`` seconds; the span stays >= 0."""
        table = self.table.copy()
        table[:, 0] += offset
        return InjectionSchedule(table, max(0.0, self.total_span + offset))


def _raise_first(failures: Sequence[np.ndarray], messages: Sequence[str]) -> None:
    """Raise a ValidationError for the first element that fails a check, with the
    message of the first check it fails; ``failures[k]`` marks who fail check k."""
    failed = np.array(failures, dtype=bool)
    first = np.flatnonzero(failed.any(axis=0))
    if first.size:
        raise ValidationError(messages[failed[:, first[0]].argmax()])


_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")  # the characters "0" and "1" as bytes 0 and 1


def validate_bits(bits: Sequence[int]) -> Bits:
    """``bits`` as a list of the ints 0 and 1; an element equal to neither raises,
    naming the first such element and its index."""
    items = np.fromiter(bits, dtype=object)  # the elements themselves, compared with ==
    one = items == 1
    bad = np.flatnonzero(~(one | (items == 0)))
    if bad.size:
        raise ValidationError(f"bit {bad[0]} is {items[bad[0]]!r}; bits must be 0 or 1")
    return one.astype(int).tolist()


def parse_bits(text: str, source: str) -> Bits:
    """Parse a string of 0/1 characters; errors name ``source``."""
    bad = set(text) - {"0", "1"}
    if bad:
        raise ValidationError(f"{source}: invalid bit characters {sorted(bad)!r}")
    return list(text.encode().translate(_BIT_VALUES))


def encode(bits: Sequence[int], timing: TimingParams, dose: float = 1.0) -> InjectionSchedule:
    """Encode a bit sequence into an injection schedule.

    Bit i occupies the frame [i*T_sym, (i+1)*T_sym); a 1 injects for t_on at
    the frame start.
    """
    bits = validate_bits(bits)
    if not dose > 0:
        raise ValidationError("dose must be positive")
    t_sym = timing.symbol_duration
    starts = np.flatnonzero(bits) * t_sym
    table = np.stack([starts, np.full_like(starts, timing.t_on), np.full_like(starts, dose)], axis=1)
    return InjectionSchedule(table, len(bits) * t_sym)


def decode(
    peaks: PeakSet,
    timing: TimingParams,
    delay: float,
    n_bits: int,
    window: float,
) -> Bits:
    """Decode detected peaks back into bits, one frame per bit.

    Bit i is 1 iff some peak lies within ``window`` seconds of the nominal
    peak location ``delay + i*T_sym + t_on/2``.
    """
    if not (math.isfinite(delay) and delay >= 0):
        raise ValidationError("delay must be finite and non-negative")
    if n_bits < 0:
        raise ValidationError("n_bits must be non-negative")
    t_sym = timing.symbol_duration
    if not 0 < window <= t_sym / 2:
        raise ValidationError("window must be in (0, T_sym/2]")
    times = peaks.table[:, 0]
    try:
        centers = delay + np.arange(n_bits) * t_sym + timing.t_on / 2
    except MemoryError:
        raise ResourceLimitError(f"n_bits={n_bits} does not fit in memory") from None
    # rounding is monotone, so of the peaks on one side of a centre the
    # nearest has the smallest rounded distance; infinities stand in for none
    sides = np.concatenate(([-np.inf], times, [np.inf]))
    right = np.searchsorted(times, centers) + 1  # sides[right - 1] < center <= sides[right]
    hit = (np.abs(sides[right - 1] - centers) <= window) | (np.abs(sides[right] - centers) <= window)
    return hit.astype(int).tolist()


def raw_bit_rate(timing: TimingParams) -> float:
    """Raw data rate 1/T_sym in bit/s."""
    return 1.0 / timing.symbol_duration


def time_overhead(timing: TimingParams) -> float:
    """Fraction of the symbol spent idle: t_off / T_sym."""
    return timing.t_off / timing.symbol_duration


def uniform_avg_bit_duration(timing: TimingParams) -> float:
    """The paper's closed-form mean bit duration (t_on + t_off)/2 for equiprobable bits of
    unequal length; this modem sends every bit in one T_sym (see ``raw_bit_rate``)."""
    return (timing.t_on + timing.t_off) / 2.0


def effective_bit_rate(timing: TimingParams) -> float:
    """The paper's closed-form rate 1/T_avg in bit/s for equiprobable bits of unequal length;
    this modem sends at ``raw_bit_rate`` (0.43 bit/s at the preset, not this 0.87)."""
    return 1.0 / uniform_avg_bit_duration(timing)


def duty_efficiency(timing: TimingParams) -> float:
    """The paper's closed-form share t_on/T_avg of a bit spent injecting, for equiprobable
    bits of unequal length; this modem's bits each last one T_sym."""
    return timing.t_on / uniform_avg_bit_duration(timing)


def max_channel_bit_rate(sample_interval: float, min_intervals: int) -> float:
    """Bit-rate ceiling imposed by the sensor's sampling interval."""
    if not sample_interval > 0:
        raise ValidationError("sample_interval must be positive")
    if min_intervals < 1:
        raise ValidationError("min_intervals must be at least 1")
    return 1.0 / (min_intervals * sample_interval)
