"""Benchmark for bubblelink: one workload, one process, one thread, closed loop.

    python3 bench/run.py --workload sweep-paper --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this script sits in.
The next operation starts when the previous one returns, and the loop runs
whole rounds of the workload's operations until their summed wall time
reaches ``--seconds``. Every operation's output is checked apart from the
program, outside the timed region. Between operations, PROBES fresh
interpreters spread over the run time the set-up and the CLI, and at the
end one more measures the peak memory of a bare round of operations.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
rounds alternate between untraced and traced, and the per-layer metrics
and the tracing overhead are printed. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Temporary trees go under ``.bench_tmp/`` in the checkout and are removed at
exit; the spans of a traced run are kept there as JSON lines.
"""

from __future__ import annotations

import os

# Pin the environment before numpy is imported. An inherited BUBBLELINK_SEED
# would override every workload's channel seed.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BUBBLELINK_SEED", None)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
CHILD_TIMEOUT = 120  # s, for each child interpreter
PROBES = 16  # fresh-interpreter measurements per run, spread over its length

SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import bubblelink
from bubblelink import config
for overrides in json.loads(sys.argv[1]):
    config.load_config(preset="paper-like", overrides=overrides)
print(time.perf_counter() - t0)
"""

# One round of the workload's operations with no checks. The child reads its
# own VmHWM: ru_maxrss would carry the parent's peak over the fork and exec.
RSS_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
workloads.run_bare_round(json.loads(sys.argv[2]), sys.argv[3])
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024)
"""

CLI_IMPORT_CHILD = """
import time
t0 = time.perf_counter()
import bubblelink.cli
print(time.perf_counter() - t0)
"""

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:3]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def child_value(code: str, cwd: str, *argv: str) -> float:
    """The number a fresh interpreter running ``code`` prints."""
    return float(run_child(["-c", code, *argv], cwd).stdout)


COUNTS = ("modem.bits_decoded", "channel.samples", "channel.echo_passes", "dsp.candidates",
          "dsp.peaks", "metrics.matched", "trace_io.bytes_written", "trace_io.bytes_read")


def layer_metrics(tracer: Tracer, n: int) -> dict[str, tuple[float, str]]:
    """Layer self seconds and counts per traced operation, with units."""
    per_op: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for op, times in tracer.self_times().items():
        for key, t in times.items():
            per_op[key] += t if op is not None else 0.0
    for op, cs in tracer.counts.items():
        for name, k in cs.items():
            counts[name] += k if op is not None else 0
    loads = [end - start for _, key, start, end, _, _ in tracer.spans if key == "config.load"]
    out = {"config.load_s": (statistics.mean(loads) if loads else 0.0, "s")}
    for key in dict.fromkeys(key for key, *_ in LAYERS if key != "config.load"):
        out["pipeline.self_s" if key == "pipeline" else f"{key}_s"] = (per_op[key] / n, "s")
    for name in COUNTS:
        out[name] = (counts[name] / n, "B" if "bytes" in name else "count")
    yield_ = counts["dsp.peaks"] / counts["dsp.candidates"] if counts["dsp.candidates"] else 0.0
    out["dsp.peak_yield"] = (yield_, "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bubblelink" / "__init__.py").is_file():
        print(f"error: no bubblelink sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    TMP.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP)
    try:
        return run_workload(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


class Run:
    """One benchmark run: the closed loop, its child-interpreter probes and checks."""

    def __init__(self, args, scratch: str, wl):
        self.args, self.scratch, self.wl = args, scratch, wl
        self.trace = bool(args.trace)
        self.tracer = Tracer()
        self.correct = True
        self.attempted = self.failed = self.n_op = 0
        self.traced_ops = 0
        self.best: dict[bool, dict] = {False: {}, True: {}}  # traced -> item -> fastest seconds
        self.total = {False: 0.0, True: 0.0}  # traced -> summed seconds
        self.samples: dict = {}  # item -> trace samples simulated or read
        self.setup_times: list[float] = []
        self.cli_times: list[float] = []
        self.import_times: list[float] = []
        self.cli_digest: str | None = None

    def check(self, func, *args) -> None:
        try:
            func(*args)
        except checks.CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            self.correct = False

    def op(self, item, traced: bool) -> None:
        """Run, time and check one operation."""
        self.attempted += 1
        out_dir = os.path.join(self.scratch, f"op{self.n_op}")
        self.tracer.op = self.n_op
        self.n_op += 1
        if traced:
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            samples = self.wl.run(item, out_dir)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        finally:
            elapsed = time.perf_counter() - t0
            self.tracer.uninstall()
        self.traced_ops += traced
        self.total[traced] += elapsed
        self.best[traced][item] = min(elapsed, self.best[traced].get(item, elapsed))
        self.samples[item] = samples
        self.check(self.wl.check, item, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)

    def probe(self, timed: bool = True) -> None:
        """Fresh-interpreter measurements: set-up and CLI, or the CLI import."""
        if self.trace:
            t = child_value(CLI_IMPORT_CHILD, self.scratch)
            self.import_times += [t] if timed else []
            return
        t = child_value(SETUP_CHILD, self.scratch, json.dumps(self.wl.overrides))
        self.setup_times += [t] if timed else []
        out = os.path.join(self.scratch, "cli")
        t0 = time.perf_counter()
        run_child(["-m", "bubblelink", "pipeline", "--preset", "paper-like", "--out-dir", out], self.scratch)
        self.cli_times += [time.perf_counter() - t0] if timed else []
        self.check(self.check_cli_tree, out)
        shutil.rmtree(out)

    def peak_rss(self) -> float:
        """Peak resident MiB of a fresh interpreter running one bare round."""
        out = os.path.join(self.scratch, "bare")
        mib = child_value(RSS_CHILD, self.scratch, str(Path(__file__).resolve().parent),
                            json.dumps(self.wl.bare_round()), out)
        shutil.rmtree(out)
        return mib

    def check_cli_tree(self, out: str) -> None:
        """The first CLI tree is checked file by file, later ones by digest."""
        import workloads

        digest = checks.tree_digest(out)
        if self.cli_digest is None:
            settings = workloads.preset_settings()
            checks.check_tree(out, settings, settings.transmitted(settings.payload))
            self.cli_digest = digest
        elif digest != self.cli_digest:
            raise checks.CheckError(f"{out}: the CLI gave a different tree on a repeat run")

    def loop(self) -> None:
        """Whole rounds until the untraced (and traced) time reaches the budget.

        Probes run between operations whenever the untraced time passes
        another 1/PROBES of the budget, so they sample the whole run.
        """
        budget = self.args.seconds / 2 if self.trace else self.args.seconds
        probes = 0
        while self.total[False] < budget or (self.trace and self.total[True] < budget):
            traced = self.trace and self.total[True] < self.total[False]
            for item in self.wl.round():
                self.op(item, traced)
                while probes < PROBES and self.total[False] >= budget * probes / PROBES:
                    self.probe()
                    probes += 1
            if not self.best[False] and not self.best[True]:
                raise RuntimeError("every operation of the first round failed")
        while probes < PROBES:
            self.probe()
            probes += 1

    def measure(self) -> dict[str, tuple[float, str]]:
        wl = self.wl
        if self.trace:
            self.tracer.install()
        wl.configure()
        self.tracer.uninstall()
        self.probe(timed=False)  # compiles bytecode and warms the file cache
        if wl.warmup is not None:
            self.op(wl.warmup, False)
            self.attempted = self.failed = 0
            self.total[False] = 0.0
            self.best[False].clear()
        self.loop()
        self.check(wl.final_check)

        best = self.best[False]
        if self.trace:
            result = {"cli.import_s": (statistics.median(self.import_times), "s")}
            result.update(layer_metrics(self.tracer, self.traced_ops))
            both = [i for i in best if i in self.best[True]]
            overhead = sum(self.best[True][i] for i in both) / sum(best[i] for i in both) - 1.0
            result["trace.overhead_pct"] = (100.0 * overhead, "%")
            self.tracer.dump(str(TMP / f"spans-{self.args.workload}-seed{self.args.seed}.jsonl"))
            return result
        return {
            "setup_s": (statistics.median(self.setup_times), "s"),
            "op_best_ms": (1000.0 * statistics.median(best.values()), "ms"),
            "samples_per_s": (sum(self.samples[i] for i in best) / sum(best.values()), "samples/s"),
            "peak_rss_mib": (self.peak_rss(), "MiB"),
            "cli_pipeline_s": (min(self.cli_times), "s"),
        }


def run_workload(args, scratch: str) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, scratch)  # benchmark-owned inputs, not part of setup_s
    run = Run(args, scratch, wl)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in run.measure().items()}
    print(f"{args.workload} seed={args.seed}: {run.attempted} operations, {run.failed} failed, "
          f"outputs {'correct' if run.correct else 'WRONG'}")
    for name, m in metrics.items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
