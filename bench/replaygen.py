"""Synthetic lab recordings for the lab-replay workload.

Shares no code with bubblelink: a recording is a framed on-off-keyed bit
string rendered as one Gaussian bolus per 1-bit at its known frame time,
plus white Gaussian noise, written in the trace CSV format (bin-start times
with 6 decimals, amplitudes with 9 significant digits). There are no echoes
or spikes, so a correct receiver with the paper-like detector settings
recovers every bit on every branch. Half the payload bits (rounded down)
are ones, so the work a recording of a given length costs does not depend
on the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

AMPLITUDE = (1.2, 1.8)  # per-bolus peak height, uniform
BOLUS_SIGMA = 0.25  # s
NOISE_STD = 0.04
DELAY = (1.0, 2.0)  # s, first bolus centre minus t_on/2, uniform
TAIL = 5.0  # s recorded after the last frame


@dataclass(frozen=True)
class Recording:
    bits: str  # preamble 1 followed by the payload
    delay: float
    printed: np.ndarray  # samples exactly as written to the CSV


def make_recording(seed: int, n_bits: int, t_on: float, t_off: float, dt: float) -> Recording:
    rng = np.random.Generator(np.random.PCG64(seed))
    payload = np.zeros(n_bits - 1, dtype=int)
    payload[rng.permutation(n_bits - 1)[: (n_bits - 1) // 2]] = 1
    bits = "1" + "".join(map(str, payload))
    delay = float(rng.uniform(*DELAY))
    t_sym = t_on + t_off
    n = math.ceil((delay + n_bits * t_sym + TAIL) / dt)
    x = rng.normal(0.0, NOISE_STD, n)
    half = int(8 * BOLUS_SIGMA / dt) + 1
    for i, b in enumerate(bits):
        if b == "1":
            center = delay + i * t_sym + t_on / 2
            k = round(center / dt)
            idx = np.arange(max(0, k - half), min(n, k + half))
            t = (idx + 0.5) * dt
            x[idx] += rng.uniform(*AMPLITUDE) * np.exp(-((t - center) ** 2) / (2 * BOLUS_SIGMA**2))
    printed = np.array([float(f"{v:.9g}") for v in x])
    return Recording(bits, delay, printed)


def write_recording(rec: Recording, dt: float, trace_path: str, bits_path: str) -> None:
    with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time_s,amplitude\n")
        fh.writelines(f"{i * dt:.6f},{v:.9g}\n" for i, v in enumerate(rec.printed.tolist()))
    with open(bits_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rec.bits + "\n")
