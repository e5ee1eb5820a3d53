"""Experiment configuration: flat key=value files with dotted section keys.

Example::

    timing.t_on=0.3
    timing.t_off=2.0
    channel.flow_rate=1.24
    ...
    bits.value=10110
    preamble=1

The `paper-like` preset ships with the package (``presets/paper_like.cfg``)
and carries the calibrated channel and detector settings used by the
acceptance scenarios. The environment variable ``BUBBLELINK_SEED``
overrides ``channel.rng_seed``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from .channel import ChannelParams
from .dsp import KalmanParams, MafParams, default_maf_window, default_min_distance
from .errors import ResourceLimitError, ValidationError
from .modem import Bits, TimingParams, parse_bits
from .trace_io import open_text

SEED_ENV_VAR = "BUBBLELINK_SEED"

PRESETS = {"paper-like": "paper_like.cfg"}

BRANCHES = ("raw", "maf", "kalman")

KNOWN_KEYS = frozenset(
    [f"timing.{f.name}" for f in fields(TimingParams)]
    + [f"channel.{f.name}" for f in fields(ChannelParams)]
    + [f"maf.{f.name}" for f in fields(MafParams)]
    + [f"kalman.{f.name}" for f in fields(KalmanParams)]
    + [f"peak.threshold.{b}" for b in BRANCHES]
    + ["peak.threshold", "peak.min_distance", "tolerance", "decode.window", "dose", "preamble",
       "bits.value", "bits.length", "bits.seed"]
)


@dataclass(frozen=True)
class ExperimentConfig:
    timing: TimingParams
    channel: ChannelParams
    maf: MafParams
    kalman: KalmanParams | None  # None -> tuned per trace at run time
    peak_min_distance: int
    peak_thresholds: dict[str, float | None]  # per branch; None -> heuristic
    tolerance: float
    decode_window: float
    dose: float
    preamble: int
    payload: Bits

    @property
    def bits(self) -> Bits:
        """Preamble 1-bits followed by the payload."""
        return [1] * self.preamble + list(self.payload)


def parse_config_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def preset_text(name: str) -> str:
    if name not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return resources.files("bubblelink.presets").joinpath(PRESETS[name]).read_text("utf-8")


_REQUIRED = object()
_KIND_NAMES = {float: "a number", int: "an integer"}


def _get(values: dict[str, str], key: str, kind: type, default=_REQUIRED):
    """Parse ``values[key]`` as ``kind`` (float or int); ``default`` if absent."""
    if key not in values:
        if default is _REQUIRED:
            raise ValidationError(f"config: missing required key {key!r}")
        return default
    try:
        value = kind(values[key])
    except ValueError:
        raise ValidationError(
            f"config key {key!r}: cannot parse {values[key]!r} as {_KIND_NAMES[kind]}"
        ) from None
    if not math.isfinite(value):
        raise ValidationError(f"config key {key!r}: {values[key]!r} is not finite")
    return value


def _resolve_payload(values: dict[str, str]) -> Bits:
    if "bits.length" in values:
        length = _get(values, "bits.length", int)
        seed = _get(values, "bits.seed", int, 0)
        if length < 0:
            raise ValidationError("bits.length must be non-negative")
        rng = np.random.Generator(np.random.PCG64(seed))
        return [int(b) for b in rng.random(length) < 0.5]
    if "bits.value" in values:
        return parse_bits(values["bits.value"], "bits.value")
    raise ValidationError("config: provide bits.value or bits.length")


def build_channel(values: dict[str, str]) -> ChannelParams:
    seed = _get(values, "channel.rng_seed", int, 0)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ValidationError(f"{SEED_ENV_VAR}={env_seed!r} is not an integer") from None

    return ChannelParams(
        flow_rate=_get(values, "channel.flow_rate", float),
        tube_diameter=_get(values, "channel.tube_diameter", float),
        distance_to_sensor=_get(values, "channel.distance_to_sensor", float),
        loop_length=_get(values, "channel.loop_length", float),
        dispersion_coeff=_get(values, "channel.dispersion_coeff", float),
        initial_spread=_get(values, "channel.initial_spread", float),
        pass_decay=_get(values, "channel.pass_decay", float),
        echo_cutoff=_get(values, "channel.echo_cutoff", float),
        noise_std=_get(values, "channel.noise_std", float, 0.0),
        spike_rate=_get(values, "channel.spike_rate", float, 0.0),
        spike_amplitude_max=_get(values, "channel.spike_amplitude_max", float, 0.0),
        sample_interval=_get(values, "channel.sample_interval", float),
        rng_seed=seed,
        max_samples=_get(values, "channel.max_samples", int, 1_000_000),
    )


def build_config(values: dict[str, str]) -> ExperimentConfig:
    timing = TimingParams(
        t_on=_get(values, "timing.t_on", float), t_off=_get(values, "timing.t_off", float)
    )
    channel = build_channel(values)

    dt = channel.sample_interval
    maf = MafParams(window=_get(values, "maf.window", int, default_maf_window(dt, timing.t_on)))

    kalman = None
    if "kalman.q" in values or "kalman.r" in values:
        kalman = KalmanParams(
            q=_get(values, "kalman.q", float),
            r=_get(values, "kalman.r", float),
            x0=_get(values, "kalman.x0", float, 0.0),
            p0=_get(values, "kalman.p0", float, _get(values, "kalman.r", float)),
        )

    base = _get(values, "peak.threshold", float, None)
    thresholds = {b: _get(values, f"peak.threshold.{b}", float, base) for b in BRANCHES}

    tolerance = _get(values, "tolerance", float, 1.0)
    if not tolerance > 0:
        raise ValidationError("tolerance must be positive")
    decode_window = _get(
        values, "decode.window", float, min(tolerance, timing.symbol_duration / 2)
    )
    preamble = _get(values, "preamble", int, 1)
    if preamble < 1:
        raise ValidationError("preamble must be at least 1 (decode delay estimation needs it)")
    # encode's span, which simulate's never undercuts: refuse an over-cap run before drawing bits
    n_bits = preamble + _get(values, "bits.length", int, len(values.get("bits.value", "")))
    n_samples = math.ceil(n_bits * timing.symbol_duration / dt - 1e-9)
    if n_samples > channel.max_samples:
        raise ResourceLimitError(f"{n_bits} bits need at least {n_samples} samples, over the "
                                 f"channel.max_samples cap of {channel.max_samples}")

    return ExperimentConfig(
        timing=timing,
        channel=channel,
        maf=maf,
        kalman=kalman,
        peak_min_distance=_get(values, "peak.min_distance", int, default_min_distance(dt)),
        peak_thresholds=thresholds,
        tolerance=tolerance,
        decode_window=decode_window,
        dose=_get(values, "dose", float, 1.0),
        preamble=preamble,
        payload=_resolve_payload(values),
    )


def merge_values(
    path: str | None = None,
    preset: str | None = None,
    overrides: dict[str, str] | None = None,
) -> dict[str, str]:
    """Merge preset, then config file, then overrides into one key=value dict.

    Override keys replace base keys; setting ``bits.length`` in the overrides
    discards any ``bits.value`` from the base (and vice versa). A key not in
    ``KNOWN_KEYS`` is rejected, so a misspelt key cannot be silently ignored.
    """
    values: dict[str, str] = {}
    if preset is not None:
        values.update(parse_config_text(preset_text(preset)))
    if path is not None:
        with open_text(path) as fh:
            values.update(parse_config_text(fh.read()))
    if overrides:
        if "bits.length" in overrides:
            values.pop("bits.value", None)
        if "bits.value" in overrides:
            values.pop("bits.length", None)
            values.pop("bits.seed", None)
        values.update(overrides)
    unknown = sorted(set(values) - KNOWN_KEYS)
    if unknown:
        raise ValidationError(f"config: unknown key {', '.join(map(repr, unknown))}")
    return values


def load_config(
    path: str | None = None,
    preset: str | None = None,
    overrides: dict[str, str] | None = None,
) -> ExperimentConfig:
    """Build an ExperimentConfig from a file and/or preset plus overrides."""
    if path is None and preset is None:
        raise ValidationError("a config file or a preset is required")
    return build_config(merge_values(path, preset, overrides))
