"""Seeded simulator of the recirculating microbubble channel.

Each injection produces a Gaussian bolus that passes the sensor once per
loop circulation ("echo passes"), losing amplitude by ``pass_decay`` per
pass and spreading as ``sigma = initial_spread + dispersion_coeff*sqrt(age)``.
The sensor bins the clean signal at ``sample_interval`` and adds Gaussian
background noise plus sparse one-bin spike transients.

Randomness is generated from numpy's PCG64 stream seeded with ``rng_seed``;
Gaussian deviates use an explicit Box-Muller transform and Poisson counts
use Knuth's multiplication method, both over raw PCG64 uniforms, so traces
are reproducible bit for bit from the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .modem import InjectionEvent, InjectionSchedule
from .signals import SensorTrace


@dataclass(frozen=True)
class ChannelParams:
    flow_rate: float  # L/min
    tube_diameter: float  # m
    distance_to_sensor: float  # m, injection point to sensor along the flow
    loop_length: float  # m, full circulation length
    dispersion_coeff: float  # seconds of std gained per sqrt(second) of age
    initial_spread: float  # s, bolus std at injection
    pass_decay: float  # amplitude retention per loop pass
    echo_cutoff: float  # relative amplitude below which passes are dropped
    sample_interval: float  # s
    noise_std: float = 0.0  # amplitude units
    spike_rate: float = 0.0  # spurious transients per second
    spike_amplitude_max: float = 0.0  # amplitude units
    rng_seed: int = 0
    max_samples: int = 1_000_000

    def __post_init__(self):
        if not (self.flow_rate > 0 and self.tube_diameter > 0):
            raise ValidationError("'channel.flow_rate' and 'channel.tube_diameter' must be positive")
        velocity = mean_flow_velocity(self.flow_rate, self.tube_diameter)
        if not 0 < velocity < math.inf:
            raise ValidationError(f"'channel.flow_rate' and 'channel.tube_diameter' give a mean "
                                  f"flow velocity of {velocity:g} m/s, not finite and positive")
        if not 0 < self.distance_to_sensor <= self.loop_length:
            raise ValidationError("require 0 < 'channel.distance_to_sensor' <= "
                                  "'channel.loop_length'")
        if not 0 <= self.pass_decay < 1:
            raise ValidationError("'channel.pass_decay' must be in [0, 1)")
        if not self.echo_cutoff > 0:
            raise ValidationError("'channel.echo_cutoff' must be positive")
        if not self.sample_interval > 0:
            raise ValidationError("'channel.sample_interval' must be positive")
        if self.noise_std < 0 or self.spike_rate < 0:
            raise ValidationError("'channel.noise_std' and 'channel.spike_rate' must be non-negative")
        if self.spike_rate > 0 and not self.spike_amplitude_max > 0:
            raise ValidationError("'channel.spike_amplitude_max' must be positive when spikes are on")
        if not (self.initial_spread > 0 and self.dispersion_coeff >= 0):
            raise ValidationError("require 'channel.initial_spread' > 0 and "
                                  "'channel.dispersion_coeff' >= 0")
        if self.rng_seed < 0:
            raise ValidationError("'channel.rng_seed' must be non-negative")
        if self.max_samples < 1:  # every trace has at least one sample
            raise ValidationError("'channel.max_samples' must be at least 1")

    def pass_delay(self, k):
        """Seconds from injection to the sensor on loop pass ``k``, a number or an array."""
        velocity = mean_flow_velocity(self.flow_rate, self.tube_diameter)  # not stored: fields only
        return (self.distance_to_sensor + k * self.loop_length) / velocity


def mean_flow_velocity(flow_rate: float, tube_diameter: float) -> float:
    """Mean velocity in m/s for a volumetric flow (L/min) through a tube (m)."""
    if not (flow_rate > 0 and tube_diameter > 0):
        raise ValidationError("flow_rate and tube_diameter must be positive")
    q = flow_rate * 1e-3 / 60.0  # m^3/s
    try:
        area = math.pi * tube_diameter**2 / 4.0
    except OverflowError:  # an area past the float range: the velocity rounds to 0
        return 0.0
    return q / area if area else math.inf


def echo_table(
    schedule: InjectionSchedule, params: ChannelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centre, amplitude, sigma) arrays of every retained sensor pass, in (event, pass) order.

    Pass k of an event has amplitude ``dose * pass_decay**k``. An event's passes
    end before the first whose amplitude is below ``echo_cutoff * dose``, or
    after the first if ``pass_decay`` is 0. A kept pass centred past the
    ``max_samples`` cap raises ResourceLimitError before the table is built:
    its trace would be refused anyway, and the table grows with its passes.
    ``simulate`` builds it once per trace; its span and ``clean_signal`` both read it.
    """
    start, duration, dose = schedule.table.T
    floor = params.echo_cutoff * dose
    mid = start + duration / 2
    decay = [1.0]  # pass_decay**k, one more k while some event is still above its floor
    while params.pass_decay > 0 and decay[-1] > 0 and (keep := dose * decay[-1] >= floor).any():
        k = len(decay) - 1  # pass k is kept, so its latest centre must fit under the cap
        latest = float(mid[keep].max()) + params.pass_delay(k)
        sample_count(latest, params)  # raises as simulate's count of the longer span would
        decay.append(params.pass_decay ** len(decay))
    amp = dose[:, None] * np.array(decay)
    kept = np.logical_and.accumulate(amp >= floor[:, None], axis=1)  # until the first drop
    event, k = np.nonzero(kept)
    center = mid[event] + params.pass_delay(k)
    # a sigma, or window of _ECHO_RADIUS sigmas, that overflows is refused, not warned about
    with np.errstate(over="ignore"):
        sigma = params.initial_spread + params.dispersion_coeff * np.sqrt(center - start[event])
        reach = center + _ECHO_RADIUS * sigma
    if not np.isfinite(reach).all():
        raise ValidationError("the echo pulses' spread overflows the float range; lower "
                              "'channel.initial_spread' or 'channel.dispersion_coeff'")
    return center, amp[kept], sigma


def echo_passes(event: InjectionEvent, params: ChannelParams) -> list[tuple[float, float, float]]:
    """(center_time, amplitude, sigma) per retained sensor pass of one event: its echo_table rows."""
    table = echo_table(InjectionSchedule((event,), 0.0), params)
    return list(zip(*(column.tolist() for column in table)))


def _gaussian_deviates(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard normal samples via Box-Muller on PCG64 uniforms."""
    m = (n + 1) // 2
    u1 = 1.0 - rng.random(m)  # in (0, 1]
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    angle = 2 * np.pi * u2
    z = np.concatenate([r * np.cos(angle), r * np.sin(angle)])
    return z[:n]


def _poisson_count(rng: np.random.Generator, lam: float) -> int:
    """Poisson sample by counting unit-rate exponential arrivals below lam.

    Log-domain form of Knuth's multiplication method; safe for large lam.
    """
    if lam <= 0:
        return 0
    k = 0
    s = 0.0
    while True:
        s += -math.log(1.0 - rng.random())  # Exp(1) arrival gap
        if s >= lam:
            return k
        k += 1


# exp(-39**2 / 2) = exp(-760.5): past exp's underflow at -745.1, so exactly 0.0
_ECHO_RADIUS = 39.0
# passes per clean_signal chunk are taken until their windows hold this many
# samples: 128 KiB per temporary, which stays in cache
_CHUNK_CELLS = 1 << 14


def clean_signal(table: tuple[np.ndarray, np.ndarray, np.ndarray], times: np.ndarray) -> np.ndarray:
    """Noise-free sum of the (centre, amplitude, sigma) passes of ``table`` at ascending ``times``.

    Each pass is added only within ``_ECHO_RADIUS`` sigmas of its centre;
    outside that every term is exactly 0.0, so the sum is the full-axis sum.
    The windows of a chunk of passes are laid end to end and evaluated at
    once, and ``np.add.at`` adds them in order, so every sample sums its
    terms in table order.
    """
    center, amp, sigma = table
    # each sigma**2 by Python's pow, not sigma * sigma: the two can differ in the last bit
    neg_var = np.array([-2.0 * s**2 for s in sigma.tolist()])
    lo = np.searchsorted(times, center - _ECHO_RADIUS * sigma, side="left")
    width = np.searchsorted(times, center + _ECHO_RADIUS * sigma, side="right") - lo
    end = np.cumsum(width)  # the passes' cells laid end to end: pass i has [end - width, end)
    start = end - width
    x = np.zeros_like(times, dtype=float)
    a = 0
    while a < len(center):
        b = max(a + 1, int(np.searchsorted(end, start[a] + _CHUNK_CELLS, side="right")))
        w = width[a:b]
        idx = np.repeat(lo[a:b] - start[a:b], w)
        idx += np.arange(start[a], end[b - 1])
        d = times[idx]
        d -= np.repeat(center[a:b], w)
        d *= d
        d /= np.repeat(neg_var[a:b], w)  # -(d**2) / (2 sigma**2), the sign moved to the divisor
        terms = np.exp(d)
        terms *= np.repeat(amp[a:b], w)
        np.add.at(x, idx, terms)
        a = b
    return x


def sample_count(span: float, params: ChannelParams) -> int:
    """Samples covering ``span``, at least one; capped before rounding, so inf is refused."""
    bins = span / params.sample_interval - 1e-9
    if max(1.0, bins) > params.max_samples:
        raise ResourceLimitError(f"a trace of {span:g} s at {params.sample_interval:g} s per sample "
                                 f"would exceed the channel.max_samples cap of {params.max_samples}")
    return max(1, math.ceil(bins))


def simulate(schedule: InjectionSchedule, params: ChannelParams) -> SensorTrace:
    """Turn an injection schedule into a noisy, seeded sensor trace.

    Deterministic: identical (schedule, params) including rng_seed yields a
    bit-identical trace.
    """
    dt = params.sample_interval
    table = echo_table(schedule, params)
    center, _, sigma = table
    # the span reaches past the last retained echo; centre and sigma never decrease from
    # one pass of an event to the next, so the maximum is at some event's last pass
    n = sample_count(float(np.max(center + 4.0 * sigma, initial=schedule.total_span)), params)
    spikes = params.spike_rate * n * dt  # the mean count; each spike costs about 1 us to draw
    if spikes > params.max_samples:
        raise ResourceLimitError(f"channel.spike_rate={params.spike_rate:g} would draw about {spikes:g}"
                                 f" spikes, over the channel.max_samples cap of {params.max_samples}")
    clock = SensorTrace(sample_interval=dt, t0=0.0, samples=np.zeros(n))
    # overflow gives inf, and inf - inf nan, silently: SensorTrace's finite check refuses them
    with np.errstate(over="ignore", invalid="ignore"):
        x = clean_signal(table, clock.bin_centers())
        rng = np.random.Generator(np.random.PCG64(params.rng_seed))
        if params.noise_std > 0:
            x = x + params.noise_std * _gaussian_deviates(rng, n)
        if params.spike_rate > 0:
            n_spikes = _poisson_count(rng, spikes)
            u = rng.random(2 * n_spikes)  # per spike: its bin, then its amplitude
            bins = np.minimum((u[0::2] * n).astype(np.int64), n - 1)
            np.add.at(x, bins, params.spike_amplitude_max * (1.0 - u[1::2]))  # in (0, max]
        np.maximum(x, 0.0, out=x)
    try:
        return clock.with_samples(x)
    except ValidationError:
        raise ValidationError("the simulated trace overflows the float range; lower 'dose', "
                              "'channel.noise_std' or 'channel.spike_amplitude_max'") from None
