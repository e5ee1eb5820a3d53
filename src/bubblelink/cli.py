"""Command-line entry points for the microbubble communication toolkit.

Exit codes: 0 on success, 2 on validation/configuration errors, 1 on I/O
and resource errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import config as cfgmod
from . import dsp, metrics, plot, trace_io
from .channel import simulate
from .errors import ResourceLimitError, ValidationError
from .modem import decode, encode, parse_bits
from .pipeline import run_pipeline


# Staged flags that set a config key, per command; a given flag beats --set and the preset.
ALIASES = {
    "encode": {"--t-on": "timing.t_on", "--t-off": "timing.t_off", "--dose": "dose"},
    "filter": {"--window": "maf.window", "--q": "kalman.q", "--r": "kalman.r",
               "--x0": "kalman.x0", "--p0": "kalman.p0"},
    "detect": {"--min-distance": "peak.min_distance"},
    "decode": {"--t-on": "timing.t_on", "--t-off": "timing.t_off", "--window": "decode.window"},
    "evaluate": {"--tolerance": "tolerance"},
}


def _collect_values(args) -> dict[str, str]:
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    for key in ALIASES.get(args.command, {}).values():
        if vars(args)[key] is not None:
            overrides[key] = vars(args)[key]
    return overrides


def _values(args) -> dict[str, str]:
    return cfgmod.merge_values(args.config, args.preset, _collect_values(args))


def cmd_encode(args) -> int:
    values = _values(args)
    if args.bits_file is not None:
        bits = trace_io.read_bits(args.bits_file)
    elif args.bits is not None:
        bits = parse_bits(args.bits, "--bits")
    else:
        bits = cfgmod.resolve_bits(values)
    schedule = encode(bits, cfgmod.section(values, "timing"), cfgmod.resolve_dose(values))
    trace_io.write_schedule(schedule, args.out)
    return 0


def cmd_simulate(args) -> int:
    params = cfgmod.build_channel(_values(args))
    schedule = trace_io.read_schedule(args.schedule)
    trace_io.write_trace(simulate(schedule, params), args.out)
    return 0


def cmd_filter(args) -> int:
    values = _values(args)
    trace = trace_io.read_trace(args.infile)
    if args.method == "maf":
        out = dsp.moving_average(trace, cfgmod.resolve_maf(values, trace.sample_interval))
    else:
        out = dsp.kalman_filter(trace, cfgmod.resolve_kalman(values))
    trace_io.write_trace(out, args.out)
    return 0


def cmd_detect(args) -> int:
    values = _values(args)
    trace = trace_io.read_trace(args.infile)
    threshold = args.threshold
    if threshold is None:
        threshold = cfgmod.detect_threshold(cfgmod.resolve_thresholds(values), args.branch, trace)
    min_distance = cfgmod.resolve_min_distance(values, trace.sample_interval)
    peaks = dsp.detect_peaks(trace, dsp.PeakDetectParams(threshold, min_distance))
    trace_io.write_peaks(peaks, args.out)
    return 0


def cmd_decode(args) -> int:
    values = _values(args)
    peaks = trace_io.read_peaks(args.peaks)
    timing = cfgmod.section(values, "timing")
    bits = decode(peaks, timing, args.delay, args.n_bits, cfgmod.resolve_decode_window(values))
    trace_io.write_bits(bits, args.out)
    return 0


def cmd_evaluate(args) -> int:
    tolerance = cfgmod.resolve_tolerance(_values(args))
    peaks = trace_io.read_peaks(args.peaks)
    truth = trace_io.read_schedule(args.truth)
    if not math.isfinite(args.truth_shift):
        raise ValidationError(f"--truth-shift must be finite, got {args.truth_shift!r}")
    if args.truth_shift:
        truth = truth.shifted(args.truth_shift)
    match = metrics.match_peaks(peaks, truth, tolerance)
    peaks_total = args.peaks_total if args.peaks_total is not None else len(truth)
    report = metrics.build_report(match, peaks_total)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            trace_io.write_report(fh, match, report)
    else:
        trace_io.write_report(sys.stdout, match, report)
    return 0


def cmd_pipeline(args) -> int:
    cfg = cfgmod.load_config(path=args.config, preset=args.preset, overrides=_collect_values(args))
    results = run_pipeline(cfg, args.out_dir)
    for name, res in results.items():
        r = res.report
        print(f"{name}: f1={r.f1:.4f} ber={r.ber:.4f} bsr={r.bsr:.4f}")
        if res.warning:
            print(f"{name}: warning: {res.warning}", file=sys.stderr)
    return 0


def cmd_plot(args) -> int:
    trace = trace_io.read_trace(args.trace)
    peaks = trace_io.read_peaks(args.peaks) if args.peaks else None
    truth = trace_io.read_schedule(args.truth) if args.truth else None
    plot.write_svg(args.out, trace, peaks, truth)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bubblelink",
        description="Microbubble OOK communication toolkit: encode, simulate, filter, detect, decode, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="bits -> injection schedule CSV")
    given = p.add_mutually_exclusive_group()
    given.add_argument("--bits", help="bit string, e.g. 10110; default: the config's bits, preamble included")
    given.add_argument("--bits-file", help="file holding the bit string")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("simulate", help="schedule CSV -> sensor trace CSV")
    p.add_argument("--schedule", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("filter", help="smooth a trace with MAF or Kalman")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", choices=["maf", "kalman"], required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("detect", help="trace CSV -> peaks CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--threshold", type=float,
                   help="default: the branch's peak.threshold, else half the 95th percentile")
    p.add_argument("--branch", choices=list(cfgmod.BRANCHES),
                   help="the branch the trace was filtered for, whose peak.threshold applies")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("decode", help="peaks CSV -> bits")
    p.add_argument("--peaks", required=True)
    p.add_argument("--delay", type=float, required=True, help="channel delay in seconds")
    p.add_argument("--n-bits", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("evaluate", help="score detected peaks against a truth schedule")
    p.add_argument("--peaks", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--truth-shift", type=float, default=0.0,
                   help="shift truth times by this many seconds (e.g. channel transit time)")
    p.add_argument("--peaks-total", type=int, help="BER denominator, default: number of truth events")
    p.add_argument("--out", help="report CSV path; default: stdout")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="full encode->simulate->filter->detect->evaluate run")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_pipeline)

    for name, p in sub.choices.items():  # every command so far; plot, added below, takes no settings
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--preset", choices=sorted(cfgmod.PRESETS), help="built-in config preset")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        for flag, key in ALIASES.get(name, {}).items():
            p.add_argument(flag, dest=key, metavar="VALUE", help=f"sets {key}")

    p = sub.add_parser("plot", help="render a trace (plus peaks/truth) to SVG")
    p.add_argument("--trace", required=True)
    p.add_argument("--peaks")
    p.add_argument("--truth")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def _join_numbers(argv: list[str]) -> list[str]:
    """``argv`` with each ``--flag`` followed by a number joined into ``--flag=number``.

    argparse takes a token such as ``-1e1`` or ``-inf``, which is no plain
    negative number to it, for an option; in the joined form it is the value.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and token.startswith("-"):
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_numbers(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
