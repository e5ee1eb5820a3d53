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
acceptance scenarios. ``merge_values`` is the one merge of settings; its last
layer, the environment variable ``BUBBLELINK_SEED``, sets ``channel.rng_seed``.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, fields
from importlib import resources

import numpy as np

from . import dsp
from .channel import ChannelParams, sample_count
from .dsp import KalmanParams, MafParams
from .errors import ResourceLimitError, ValidationError
from .modem import Bits, TimingParams, parse_bits
from .signals import SensorTrace
from .trace_io import open_text

SEED_ENV_VAR = "BUBBLELINK_SEED"

PRESETS = {"paper-like": "paper_like.cfg"}

# each detection branch's filter (trace, cfg) -> trace, in output order; a filter looks its dsp
# function up when called, so a wrapper set on the dsp module is seen
BRANCHES = {"raw": lambda trace, cfg: trace,
            "maf": lambda trace, cfg: dsp.moving_average(trace, cfg.maf),
            "kalman": lambda trace, cfg: dsp.kalman_filter(trace, cfg.kalman)}

# each section's keys are its params dataclass's fields: "<section>.<field>"
SECTIONS = {"timing": TimingParams, "channel": ChannelParams, "maf": MafParams,
            "kalman": KalmanParams}

KNOWN_KEYS = frozenset(
    [f"{name}.{f.name}" for name, cls in SECTIONS.items() for f in fields(cls)]
    + [f"peak.threshold.{b}" for b in BRANCHES]
    + ["peak.min_distance", "tolerance", "decode.window", "dose", "preamble",
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
    bits: Bits  # transmitted, preamble included


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


_KIND_NAMES = {float: "a number", int: "an integer"}
_KINDS = {kind.__name__: kind for kind in _KIND_NAMES}  # a field's annotation text -> its kind


def _get(values: dict[str, str], key: str, kind: type, default=MISSING):
    """Parse ``values[key]`` as ``kind`` (float or int); ``default`` if absent."""
    if key not in values:
        if default is MISSING:
            raise ValidationError(f"config: missing required key {key!r}")
        return default
    try:
        value = kind(values[key])
    except ValueError:
        raise ValidationError(
            f"config key {key!r}: cannot parse {values[key]!r} as {_KIND_NAMES[kind]}"
        ) from None
    if not math.isfinite(float(values[key])):  # float, so a huge integer is inf too
        raise ValidationError(f"config key {key!r}: {values[key]!r} is not finite")
    return value


def _resolve_payload(values: dict[str, str]) -> Bits:
    if "bits.length" in values:
        length = _get(values, "bits.length", int)
        seed = _get(values, "bits.seed", int, 0)
        if length < 0:
            raise ValidationError("bits.length must be non-negative")
        if seed < 0:
            raise ValidationError("bits.seed must be non-negative")
        rng = np.random.Generator(np.random.PCG64(seed))
        try:
            return [int(b) for b in rng.random(length) < 0.5]
        except MemoryError:
            raise ResourceLimitError(f"bits.length={length} does not fit in memory") from None
    return parse_bits(values["bits.value"], "bits.value")


def section(values: dict[str, str], name: str, **defaults):
    """Build ``SECTIONS[name]``; an absent key takes ``defaults`` or else the field's default."""
    cls = SECTIONS[name]
    return cls(**{f.name: _get(values, f"{name}.{f.name}", _KINDS[f.type],
                               defaults.get(f.name, f.default)) for f in fields(cls)})


def _samples_in(seconds: float, sample_interval: float) -> int:
    """Whole samples in ``seconds``, at least one."""
    samples = seconds / sample_interval
    if not math.isfinite(samples):
        raise ValidationError(f"sample interval {sample_interval:g} s is too small: "
                              f"{seconds:g} s would be {samples:g} samples")
    return max(1, round(samples))


# Each resolver decides one parameter and its default from the merged values; build_config
# passes the channel's sample interval, and a staged command its trace's.
def resolve_maf(values: dict[str, str], sample_interval: float) -> MafParams:
    if "maf.window" in values or "timing.t_on" not in values:
        return section(values, "maf")  # without either, the error names maf.window
    return MafParams(_samples_in(_get(values, "timing.t_on", float), sample_interval))


def resolve_kalman(values: dict[str, str]) -> KalmanParams | None:
    if not any(key.startswith("kalman.") for key in values):
        return None  # tuned per trace at run time
    return section(values, "kalman", x0=0.0, p0=_get(values, "kalman.r", float))


def resolve_min_distance(values: dict[str, str], sample_interval: float) -> int:
    if "peak.min_distance" in values:
        return _get(values, "peak.min_distance", int)
    return _samples_in(1.0, sample_interval)


def resolve_tolerance(values: dict[str, str]) -> float:
    tolerance = _get(values, "tolerance", float, 1.0)
    if not tolerance > 0:
        raise ValidationError("tolerance must be positive")
    return tolerance


def resolve_decode_window(values: dict[str, str]) -> float:
    if "decode.window" in values:
        return _get(values, "decode.window", float)
    return min(resolve_tolerance(values), section(values, "timing").symbol_duration / 2)


def resolve_thresholds(values: dict[str, str]) -> dict[str, float | None]:
    """Each branch's ``peak.threshold.<branch>``, or None where it is not set."""
    return {b: _get(values, f"peak.threshold.{b}", float, None) for b in BRANCHES}


def detect_threshold(thresholds: dict[str, float | None], branch: str | None,
                     trace: SensorTrace) -> float:
    """The peak threshold of ``branch``: its entry in ``thresholds``, else, or with no
    branch, half the 95th amplitude percentile of the trace filtered for it."""
    threshold = thresholds.get(branch)
    return dsp.default_threshold(trace) if threshold is None else threshold


def resolve_dose(values: dict[str, str]) -> float:
    return _get(values, "dose", float, 1.0)


def resolve_bits(values: dict[str, str]) -> Bits:
    """Preamble 1-bits, then the payload; a run over the sample cap is refused before drawing."""
    preamble = _get(values, "preamble", int, 1)
    if preamble < 1:
        raise ValidationError("preamble must be at least 1 (decode delay estimation needs it)")
    if "bits.length" not in values and "bits.value" not in values:
        raise ValidationError("config: provide bits.value or bits.length")
    if "bits.length" in values and "bits.value" in values:
        raise ValidationError("config: bits.value and bits.length are both set; give one of them")
    if "bits.seed" in values and "bits.length" not in values:
        raise ValidationError("config key 'bits.seed' needs bits.length, which draws the bits")
    # encode's span, which simulate's never undercuts; summed as a float, since two integers
    # within float range can add up past it
    n_bits = float(preamble) + _get(values, "bits.length", int, len(values.get("bits.value", "")))
    sample_count(n_bits * section(values, "timing").symbol_duration, section(values, "channel"))
    return [1] * preamble + _resolve_payload(values)


def build_config(values: dict[str, str]) -> ExperimentConfig:
    bits = resolve_bits(values)  # first, so a run over the sample cap reaches no other resolver
    channel = section(values, "channel")
    return ExperimentConfig(
        timing=section(values, "timing"),
        channel=channel,
        maf=resolve_maf(values, channel.sample_interval),
        kalman=resolve_kalman(values),
        peak_min_distance=resolve_min_distance(values, channel.sample_interval),
        peak_thresholds=resolve_thresholds(values),
        tolerance=resolve_tolerance(values),
        decode_window=resolve_decode_window(values),
        dose=resolve_dose(values),
        bits=bits,
    )


def merge_values(
    path: str | None = None,
    preset: str | None = None,
    overrides: dict[str, str] | None = None,
) -> dict[str, str]:
    """Fold the preset, the config file, the overrides and ``BUBBLELINK_SEED`` into one dict.

    Each layer's keys replace earlier ones; the variable is the layer ``{"channel.rng_seed":
    value}``. A layer's ``bits.length`` discards an earlier ``bits.value``, and its
    ``bits.value`` an earlier ``bits.length`` and ``bits.seed``. A key not in ``KNOWN_KEYS``
    is rejected, so a misspelt key cannot be silently ignored.
    """
    layers = [parse_config_text(preset_text(preset))] if preset is not None else []
    if path is not None:
        with open_text(path) as fh:
            layers.append(parse_config_text(fh.read()))
    layers.append(overrides or {})
    if SEED_ENV_VAR in os.environ:
        layers.append({"channel.rng_seed": os.environ[SEED_ENV_VAR]})
    values: dict[str, str] = {}
    for layer in layers:
        if "bits.length" in layer:
            values.pop("bits.value", None)
        if "bits.value" in layer:
            values.pop("bits.length", None)
            values.pop("bits.seed", None)
        values.update(layer)
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
