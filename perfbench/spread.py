#!/usr/bin/env python3
"""Run-to-run spread report for perfbench.

Runs `perfbench/run.py --workload W --seed S` once per seed for each
workload, the way a benchmark harness runs it, and reports for every
end-to-end metric the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median. Gated metrics (BENCHMARK.json
end_to_end) are compared against their bound; the target is a spread
below a third of it. The other end-to-end metrics of spec.json are
reported with their spread, ungated.

Usage:
    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
        [--workloads fleet-warm,...] [--out perfbench/SPREAD.md]
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROW = re.compile(r"^  (\S+)\s+(\S+) (\S+)")


def run_once(workload, seed, seconds):
    """@return (gated metrics, every end-to-end value, wall seconds)."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    wall = time.monotonic() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{proc.returncode}")
    result = json.loads(lines[-1])
    table, inside = {}, False
    for line in lines[:-1]:
        if line.startswith(f"-- {workload} end-to-end --"):
            inside = True
            continue
        m = ROW.match(line) if inside else None
        if m:
            table[m.group(1)] = float(m.group(2))
    for name, metric in result["metrics"].items():
        table[name] = metric["value"]  # full precision for gated ones
    return result, table, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {n: e["unit"] for n, e in spec["end_to_end"].items()}
    report = [f"# perfbench run-to-run spread\n",
              f"{args.runs} runs per workload, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds:g} s "
              f"each. Spread = (Q3 - Q1) / median, quartiles from "
              f"statistics.quantiles(n=4). Gated metrics target a spread "
              f"below a third of their bound.\n"]
    steady = True
    for workload in args.workloads.split(","):
        values, walls, attempted, failed = {}, [], [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            result, table, wall = run_once(workload, seed, args.seconds)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: incorrect")
            walls.append(wall)
            attempted.append(result["attempted"])
            failed.append(result["failed"])
            for name, v in table.items():
                values.setdefault(name, []).append(v)
            print(f"{workload} seed {seed}: {wall:.1f} s "
                  f"{json.dumps(result['metrics'])}", flush=True)
        report.append(f"\n## {workload}\n")
        report.append(f"wall per run: median {statistics.median(walls):.1f}"
                      f" s, max {max(walls):.1f} s; attempted "
                      f"{sum(attempted)}, failed {sum(failed)}\n")
        report.append("| metric | unit | median | Q1 | Q3 | spread | "
                      "bound | verdict |")
        report.append("|---|---|---|---|---|---|---|---|")
        for name in spec["workloads"][workload]["end_to_end"]:
            vs = values.get(name)
            if not vs:
                continue
            q1, q2, q3, s = spread(vs)
            bound = bounds.get(name)
            if bound is None:
                verdict = "ungated"
            elif name == "setup_s":
                verdict = "median compared only"
            elif s < bound / 3:
                verdict = "steady"
            else:
                verdict = "UNSTEADY" if s > bound else "within bound"
                steady = False
            report.append(
                f"| {name} | {units[name]} | {q2:.6g} | {q1:.6g} | "
                f"{q3:.6g} | {s:.3f} | "
                f"{'-' if bound is None else bound} | {verdict} |")
    text = "\n".join(report) + "\n"
    print(text)
    if args.out:
        Path(args.out).write_text(text)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
