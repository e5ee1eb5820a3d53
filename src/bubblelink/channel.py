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
            raise ValidationError("flow_rate and tube_diameter must be positive")
        if not 0 < self.distance_to_sensor <= self.loop_length:
            raise ValidationError("require 0 < distance_to_sensor <= loop_length")
        if not 0 <= self.pass_decay < 1:
            raise ValidationError("pass_decay must be in [0, 1)")
        if not self.echo_cutoff > 0:
            raise ValidationError("echo_cutoff must be positive")
        if not self.sample_interval > 0:
            raise ValidationError("sample_interval must be positive")
        if self.noise_std < 0 or self.spike_rate < 0:
            raise ValidationError("noise_std and spike_rate must be non-negative")
        if self.spike_rate > 0 and not self.spike_amplitude_max > 0:
            raise ValidationError("spike_amplitude_max must be positive when spikes are on")
        if not (self.initial_spread > 0 and self.dispersion_coeff >= 0):
            raise ValidationError("initial_spread must be > 0, dispersion_coeff >= 0")
        if self.rng_seed < 0:
            raise ValidationError("rng_seed must be non-negative")


def mean_flow_velocity(flow_rate: float, tube_diameter: float) -> float:
    """Mean velocity in m/s for a volumetric flow (L/min) through a tube (m)."""
    if not (flow_rate > 0 and tube_diameter > 0):
        raise ValidationError("flow_rate and tube_diameter must be positive")
    q = flow_rate * 1e-3 / 60.0  # m^3/s
    area = math.pi * tube_diameter**2 / 4.0
    return q / area


def echo_passes(event: InjectionEvent, params: ChannelParams) -> list[tuple[float, float, float]]:
    """(center_time, amplitude, sigma) per retained sensor pass of one event."""
    v = mean_flow_velocity(params.flow_rate, params.tube_diameter)
    passes = []
    k = 0
    while True:
        amp = event.dose * params.pass_decay**k
        if amp < params.echo_cutoff * event.dose:
            break
        center = event.start + event.duration / 2 + (params.distance_to_sensor + k * params.loop_length) / v
        age = center - event.start
        sigma = params.initial_spread + params.dispersion_coeff * math.sqrt(age)
        passes.append((center, amp, sigma))
        if params.pass_decay == 0:
            break
        k += 1
    return passes


def _gaussian_deviates(rng: np.random.Generator, n: int) -> np.ndarray:
    """Standard normal samples via Box-Muller on PCG64 uniforms."""
    m = (n + 1) // 2
    u1 = 1.0 - rng.random(m)  # in (0, 1]
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2 * np.pi * u2), r * np.sin(2 * np.pi * u2)])
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


def clean_signal(schedule: InjectionSchedule, params: ChannelParams, times: np.ndarray) -> np.ndarray:
    """Noise-free superposition of all echo passes evaluated at ascending ``times``.

    Each pass is added only within ``_ECHO_RADIUS`` sigmas of its centre;
    outside that every term is exactly 0.0, so the sum is the full-axis sum.
    """
    x = np.zeros_like(times, dtype=float)
    for event in schedule.events:
        for center, amp, sigma in echo_passes(event, params):
            lo = np.searchsorted(times, center - _ECHO_RADIUS * sigma, side="left")
            hi = np.searchsorted(times, center + _ECHO_RADIUS * sigma, side="right")
            x[lo:hi] += amp * np.exp(-((times[lo:hi] - center) ** 2) / (2.0 * sigma**2))
    return x


def trace_span(schedule: InjectionSchedule, params: ChannelParams) -> float:
    """Simulated span: schedule span extended past the last retained echo."""
    span = schedule.total_span
    for event in schedule.events:
        passes = echo_passes(event, params)
        center, _, sigma = passes[-1]
        span = max(span, center + 4.0 * sigma)
    return span


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
    n = sample_count(trace_span(schedule, params), params)
    clock = SensorTrace(sample_interval=dt, t0=0.0, samples=np.zeros(n))
    x = clean_signal(schedule, params, clock.bin_centers())

    rng = np.random.Generator(np.random.PCG64(params.rng_seed))
    if params.noise_std > 0:
        x = x + params.noise_std * _gaussian_deviates(rng, n)
    if params.spike_rate > 0:
        n_spikes = _poisson_count(rng, params.spike_rate * n * dt)
        for _ in range(n_spikes):
            bin_idx = min(int(rng.random() * n), n - 1)
            amp = params.spike_amplitude_max * (1.0 - rng.random())  # in (0, max]
            x[bin_idx] += amp
    np.maximum(x, 0.0, out=x)
    return clock.with_samples(x)
