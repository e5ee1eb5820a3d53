"""Time-based OOK modem: bits to injection schedules and back.

A binary 1 is transmitted by injecting a microbubble bolus for ``t_on``
seconds; a binary 0 is an idle period of ``t_off`` seconds. Two timeline
interpretations are supported:

* framed: every bit occupies a fixed frame of ``t_on + t_off`` seconds
  (the decodable default),
* variable: 1-bits consume ``t_on`` seconds and 0-bits ``t_off`` seconds
  (rate accounting and encoding only; there is no receiver algorithm
  for this interpretation).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import UnsupportedModeError, ValidationError
from .signals import PeakSet

Bits = list[int]


class TimingMode(Enum):
    FRAMED_SYMBOL = "framed"
    VARIABLE_LENGTH = "variable"


@dataclass(frozen=True)
class TimingParams:
    """OOK symbol clock: injection and idle durations in seconds."""

    t_on: float
    t_off: float
    mode: TimingMode = TimingMode.FRAMED_SYMBOL

    def __post_init__(self):
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
    """Transmitter-side list of timed, non-overlapping bolus injections."""

    events: tuple[InjectionEvent, ...]
    total_span: float

    def __post_init__(self):
        events = tuple(InjectionEvent(*map(float, e)) for e in self.events)
        for ev in events:
            if not ev.dose > 0:
                raise ValidationError("event dose must be positive")
            if not ev.duration > 0:
                raise ValidationError("event duration must be positive")
        for prev, cur in zip(events, events[1:]):
            if not cur.start > prev.start:
                raise ValidationError("events must be sorted strictly ascending by start")
            if prev.start + prev.duration > cur.start + 1e-12:
                raise ValidationError("events must not overlap")
        if self.total_span < 0:
            raise ValidationError("total_span must be non-negative")
        object.__setattr__(self, "events", events)

    def __len__(self) -> int:
        return len(self.events)

    def shifted(self, offset: float) -> "InjectionSchedule":
        """Schedule with every event start moved by ``offset`` seconds."""
        events = tuple(
            InjectionEvent(e.start + offset, e.duration, e.dose) for e in self.events
        )
        return InjectionSchedule(events, self.total_span + offset)


def validate_bits(bits: Sequence[int]) -> Bits:
    out = []
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValidationError(f"bit {i} is {b!r}; bits must be 0 or 1")
        out.append(int(b))
    return out


def parse_bits(text: str, source: str) -> Bits:
    """Parse a string of 0/1 characters; errors name ``source``."""
    bad = set(text) - {"0", "1"}
    if bad:
        raise ValidationError(f"{source}: invalid bit characters {sorted(bad)!r}")
    return [int(c) for c in text]


def encode(bits: Sequence[int], timing: TimingParams, dose: float = 1.0) -> InjectionSchedule:
    """Encode a bit sequence into an injection schedule.

    Framed mode places bit i in the frame [i*T_sym, (i+1)*T_sym); a 1 injects
    for t_on at the frame start. Variable mode advances a cursor by t_on per
    1-bit (injecting) and t_off per 0-bit (idle).
    """
    bits = validate_bits(bits)
    if not dose > 0:
        raise ValidationError("dose must be positive")
    events = []
    if timing.mode is TimingMode.FRAMED_SYMBOL:
        t_sym = timing.symbol_duration
        for i, b in enumerate(bits):
            if b:
                events.append(InjectionEvent(i * t_sym, timing.t_on, dose))
        span = len(bits) * t_sym
    else:
        cursor = 0.0
        for b in bits:
            if b:
                events.append(InjectionEvent(cursor, timing.t_on, dose))
                cursor += timing.t_on
            else:
                cursor += timing.t_off
        span = cursor
    return InjectionSchedule(tuple(events), span)


def decode(
    peaks: PeakSet,
    timing: TimingParams,
    delay: float,
    n_bits: int,
    window: float,
) -> Bits:
    """Decode detected peaks back into bits (framed mode only).

    Bit i is 1 iff some peak lies within ``window`` seconds of the nominal
    peak location ``delay + i*T_sym + t_on/2``.
    """
    if timing.mode is not TimingMode.FRAMED_SYMBOL:
        raise UnsupportedModeError("decode is only defined for framed-symbol timing")
    if delay < 0:
        raise ValidationError("delay must be non-negative")
    if n_bits < 0:
        raise ValidationError("n_bits must be non-negative")
    t_sym = timing.symbol_duration
    if not 0 < window <= t_sym / 2:
        raise ValidationError("window must be in (0, T_sym/2]")
    times = peaks.times()
    bits = []
    for i in range(n_bits):
        center = delay + i * t_sym + timing.t_on / 2
        hit = any(abs(t - center) <= window for t in times)
        bits.append(1 if hit else 0)
    return bits


def raw_bit_rate(timing: TimingParams) -> float:
    """Raw data rate 1/T_sym in bit/s."""
    return 1.0 / timing.symbol_duration


def time_overhead(timing: TimingParams) -> float:
    """Fraction of the symbol spent idle: t_off / T_sym."""
    return timing.t_off / timing.symbol_duration


def uniform_avg_bit_duration(timing: TimingParams) -> float:
    """Expected bit duration (t_on + t_off)/2 under equiprobable bits."""
    return (timing.t_on + timing.t_off) / 2.0


def effective_bit_rate(timing: TimingParams) -> float:
    """Effective rate 1/T_avg under equiprobable bits, in bit/s."""
    return 1.0 / uniform_avg_bit_duration(timing)


def duty_efficiency(timing: TimingParams) -> float:
    """Fraction of the average bit duration spent actively injecting."""
    return timing.t_on / uniform_avg_bit_duration(timing)


def max_channel_bit_rate(sample_interval: float, min_intervals: int) -> float:
    """Bit-rate ceiling imposed by the sensor's sampling interval."""
    if not sample_interval > 0:
        raise ValidationError("sample_interval must be positive")
    if min_intervals < 1:
        raise ValidationError("min_intervals must be at least 1")
    return 1.0 / (min_intervals * sample_interval)
