"""Run workloads repeatedly and print each metric's median and quartiles.

    python3 bench/repeat.py [--workloads sweep-paper,lab-replay] [--runs 10] [--first-seed 1]

Each run is a fresh ``bench/run.py --trace 0`` process with the next seed,
measuring for ``run_seconds`` from ``BENCHMARK.json``. For every end-to-end
metric the table gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median,
next to its bound from ``BENCHMARK.json``. The raw results are appended as
JSON lines to ``.bench_tmp/repeat-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    status = 0
    for workload in args.workloads.split(","):
        results = []
        log = ROOT / ".bench_tmp" / f"repeat-{workload}.jsonl"
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0 or not proc.stdout.strip():
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            results.append(res)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(res) + "\n")
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
        if not results:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {len(results)} runs, correct in {sum(r['correct'] for r in results)}, "
              f"failed share {shares}")
        print(f"  {'metric':24s} {'unit':10s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            print(f"  {name:24s} {first['unit']:10s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
                  f"{bound:>6}")
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
