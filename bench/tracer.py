"""Per-layer tracing of bubblelink from outside the package.

While installed, the tracer replaces each public function listed in
``LAYERS`` by a wrapper, in every loaded ``bubblelink`` module that holds
it, so calls through ``from .x import f`` names are seen too. A wrapper
records one span (id, layer key, start, end, parent span, operation id) in
memory and adds the call's counts. Nothing is written until ``dump``.

A function that no longer exists is skipped, and its layer reports zero
calls, so refactoring the package does not break the benchmark.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (layer key, module, function, counter). A counter maps (args, result) to
# {count name: increment}.
LAYERS = [
    ("config.load", "config", "load_config", None),
    ("modem.encode", "modem", "encode", None),
    ("modem.decode", "modem", "decode", lambda a, r: {"modem.bits_decoded": len(r)}),
    ("channel.simulate", "channel", "simulate", lambda a, r: {
        "channel.samples": len(r),
        "channel.echo_passes": sum(
            len(sys.modules["bubblelink.channel"].echo_passes(e, a[1])) for e in a[0].events),
    }),
    ("channel.clean_signal", "channel", "clean_signal", None),
    ("dsp.maf", "dsp", "moving_average", None),
    ("dsp.kalman", "dsp", "kalman_filter", None),
    ("dsp.kalman", "dsp", "default_kalman_params", None),
    ("dsp.detect", "dsp", "detect_peaks", lambda a, r: {"dsp.peaks": len(r)}),
    ("dsp.detect", "dsp", "peak_candidates", lambda a, r: {"dsp.candidates": len(r)}),
    ("metrics.match", "metrics", "match_peaks", lambda a, r: {"metrics.matched": r.tp}),
    ("metrics.match", "metrics", "build_report", None),
    ("trace_io.write", "trace_io", "write_trace", lambda a, r: {"trace_io.bytes_written": os.path.getsize(a[1])}),
    ("trace_io.write", "trace_io", "write_peaks", lambda a, r: {"trace_io.bytes_written": os.path.getsize(a[1])}),
    ("trace_io.write", "trace_io", "write_bits", lambda a, r: {"trace_io.bytes_written": os.path.getsize(a[1])}),
    ("trace_io.write", "trace_io", "write_schedule", lambda a, r: {"trace_io.bytes_written": os.path.getsize(a[1])}),
    ("trace_io.read", "trace_io", "read_trace", lambda a, r: {"trace_io.bytes_read": os.path.getsize(a[0])}),
    ("trace_io.read", "trace_io", "read_bits", lambda a, r: {"trace_io.bytes_read": os.path.getsize(a[0])}),
    ("pipeline", "pipeline", "run_pipeline", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, key, start, end, parent, op)
        self.counts: dict[int | None, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op: int | None = None  # None while setting up
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, key, func, counter):
        def traced(*args, **kwargs):
            span = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span] = (span, key, start, end, parent, self.op)
            if counter is not None:
                for name, n in counter(args, result).items():
                    self.counts[self.op][name] += n
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "bubblelink" or name.startswith("bubblelink."))]
        for key, modname, fname, counter in LAYERS:
            func = getattr(sys.modules.get(f"bubblelink.{modname}"), fname, None)
            if func is None:
                continue
            wrapper = self._wrap(key, func, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is func:
                        self._saved.append((m, attr, func))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, func in reversed(self._saved):
            setattr(m, attr, func)
        self._saved.clear()

    def self_times(self) -> dict[int | None, dict[str, float]]:
        """Per operation, each layer's span time minus its child spans'."""
        out: dict = defaultdict(lambda: defaultdict(float))
        for span, key, start, end, parent, op in self.spans:
            out[op][key] += end - start
            if parent is not None:
                out[op][self.spans[parent][1]] -= end - start
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span, key, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span, "name": key, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
