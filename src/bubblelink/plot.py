"""Deterministic SVG 1.1 rendering of traces, peaks, and injection spans.

The renderer writes plain SVG by hand so identical inputs always produce
byte-identical output files.
"""

from __future__ import annotations

from .modem import InjectionSchedule
from .signals import PeakSet, SensorTrace

WIDTH = 900
HEIGHT = 300
MARGIN = 40

TRACE_COLOR = "#1f77b4"
PEAK_COLOR = "#2ca02c"
TRUTH_COLOR = "#999999"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_svg(
    trace: SensorTrace,
    peaks: PeakSet | None = None,
    truth: InjectionSchedule | None = None,
) -> str:
    """Amplitude-vs-time line chart with optional peak markers and truth spans."""
    times = trace.bin_centers()
    amps = trace.samples
    t_min = float(times[0]) if len(times) else 0.0
    t_max = float(times[-1]) if len(times) else 1.0
    if t_max <= t_min:
        t_max = t_min + 1.0
    a_max = float(amps.max()) if len(amps) and amps.max() > 0 else 1.0

    def sx(t: float) -> float:
        return MARGIN + (t - t_min) / (t_max - t_min) * (WIDTH - 2 * MARGIN)

    def sy(a: float) -> float:
        return HEIGHT - MARGIN - a / a_max * (HEIGHT - 2 * MARGIN)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n',
    ]

    if truth is not None:
        for start, duration, _ in truth.table.tolist():
            x0, x1 = sx(start), sx(start + duration)
            parts.append(
                f'<rect x="{_fmt(x0)}" y="{MARGIN}" width="{_fmt(max(x1 - x0, 1.0))}" '
                f'height="{HEIGHT - 2 * MARGIN}" fill="{TRUTH_COLOR}" opacity="0.3"/>\n'
            )

    points = " ".join(f"{_fmt(sx(t))},{_fmt(sy(a))}" for t, a in zip(times, amps))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="{TRACE_COLOR}" stroke-width="1"/>\n'
    )

    if peaks is not None:
        for time, amplitude in peaks.table.tolist():
            parts.append(
                f'<circle cx="{_fmt(sx(time))}" cy="{_fmt(sy(amplitude))}" r="4" '
                f'fill="none" stroke="{PEAK_COLOR}" stroke-width="2"/>\n'
            )

    # axes
    parts.append(
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>\n'
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black" stroke-width="1"/>\n'
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 10}" font-size="12" '
        f'text-anchor="middle">time [s] ({_fmt(t_min)} to {_fmt(t_max)})</text>\n'
    )
    parts.append("</svg>\n")
    return "".join(parts)


def write_svg(path, trace, peaks=None, truth=None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_svg(trace, peaks, truth))
