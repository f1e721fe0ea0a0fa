#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Builds the perfbench runner from source (perfbench/CMakeLists.txt, which
compiles ../src), runs each workload in its own process and prints its
report. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics BENCHMARK.json
lists; with --trace 1 they are its per_layer metrics (a layer the
workload does not exercise reads 0). Without --workload every workload
runs, one process each, the fleet verdict digests are compared across
workloads, and the last line carries every workload's end-to-end table.

Usage:
    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

Exit status is 0 only when the build, the run and every correctness
check succeed.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["fleet-warm", "fleet-cold", "bus-service", "paper-study"]
FLEET_WORKLOADS = ["fleet-warm", "fleet-cold"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_proc(cmd, timeout, **kwargs):
    """Run `cmd` in its own process group; on timeout or interrupt kill
    the whole group (compilers included) and wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return proc.returncode, out


def exit_on_signal(signum, _frame):
    # Turned into an exception so run_proc kills the child's process
    # group before this process exits.
    raise SystemExit(128 + signum)


def build_root():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return base if base.is_absolute() else ROOT / base


def build(broot):
    """Configure (once) and build the runner; return its path or None."""
    bdir = broot / "perfbench"
    tmp = broot / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 1)

    def configure():
        rc, _ = run_proc(["cmake", "-S", str(HERE), "-B", str(bdir),
                          *generator, "-DCMAKE_BUILD_TYPE=Release"],
                         BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
        return rc == 0

    def compile_runner():
        rc, _ = run_proc(["cmake", "--build", str(bdir), "--target",
                          "perfbench_runner", "-j", jobs],
                         BUILD_TIMEOUT_S, stdout=sys.stderr, env=env)
        return rc == 0

    if not (bdir / "CMakeCache.txt").exists() and not configure():
        return None
    if not compile_runner():
        # A cache configured for another source tree: start over once.
        shutil.rmtree(bdir, ignore_errors=True)
        if not configure() or not compile_runner():
            return None
    return bdir / "perfbench_runner"


def run_workload(runner, broot, workload, seed, seconds, trace):
    """Run one workload in its own process; return (exit code, results
    dict or None). Its report lines go to our standard output."""
    runs = broot / "perfbench" / "runs"
    data = runs / f"{workload}-{os.getpid()}"
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    results = data / "results.json"
    cmd = [str(runner), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--data-dir", str(data), "--results", str(results)]
    if trace:
        traces = broot / "perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    try:
        rc, out = run_proc(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                           text=True)
        sys.stdout.write(out)
        sys.stdout.flush()
        parsed = None
        if rc in (0, 1) and results.exists():
            parsed = json.loads(results.read_text())
        return rc, parsed
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return -1, None
    finally:
        shutil.rmtree(data, ignore_errors=True)


def print_end_to_end(spec, workload, res):
    print(f"-- {workload} end-to-end --")
    for name in spec["workloads"][workload]["end_to_end"]:
        m = res["metrics"].get(name)
        unit = spec["end_to_end"][name]["unit"]
        value = "missing" if m is None else f"{m['value']:.6g}"
        extra = ""
        paper = spec["end_to_end"][name].get("paper")
        if paper and m is not None and m["value"]:
            extra = (f"  (paper {paper:g}, log10 error "
                     f"{math.log10(m['value'] / paper):+.2f})")
        print(f"  {name:<24} {value:>14} {unit}{extra}")


def select(res, wanted, end_to_end):
    """Pick the BENCHMARK.json metrics out of the runner's results."""
    selected, errors = {}, []
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        m = res["metrics"].get(name)
        if m is None:
            if end_to_end:
                errors.append(f"end-to-end metric {name} not measured")
                continue
            m = {"value": 0.0, "unit": unit}  # layer not exercised
        if m["value"] is None or not math.isfinite(m["value"]):
            errors.append(f"metric {name} is not a finite number")
            continue
        if m["unit"] != unit:
            errors.append(f"metric {name}: unit {m['unit']} != {unit}")
            continue
        if end_to_end and m["value"] <= 0:
            errors.append(f"end-to-end metric {name} reads {m['value']}")
            continue
        selected[name] = {"value": m["value"], "unit": unit}
    return selected, errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2020)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.exists():
        log("perfbench: BENCHMARK.json not found")
        return 1
    bench = json.loads(bench_file.read_text())
    spec = json.loads((HERE / "spec.json").read_text())

    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, exit_on_signal)
    broot = build_root()
    try:
        runner = build(broot)
    except subprocess.TimeoutExpired:
        runner = None
    if runner is None:
        log("perfbench: build failed")
        return 1

    if args.workload is not None:
        rc, res = run_workload(runner, broot, args.workload, args.seed,
                               args.seconds, args.trace == 1)
        if res is None:
            log(f"perfbench: {args.workload} failed (exit {rc})")
            return 1
        print_end_to_end(spec, args.workload, res)
        wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
        selected, errors = select(res, wanted, end_to_end=not args.trace)
        if errors:
            for e in errors:
                log(f"perfbench: {e}")
            return 1
        correct = bool(res["correct"]) and rc == 0
        print(json.dumps({"correct": correct,
                          "attempted": int(res["attempted"]),
                          "failed": int(res["failed"]),
                          "metrics": selected}))
        return 0 if correct else 1

    # Every workload, each in its own process, plus the cross-workload
    # check: cache size must never change a fleet verdict.
    correct, attempted, failed, metrics, digests = True, 0, 0, {}, {}
    for workload in WORKLOADS:
        rc, res = run_workload(runner, broot, workload, args.seed,
                               args.seconds, args.trace == 1)
        if res is None:
            log(f"perfbench: {workload} failed (exit {rc})")
            return 1
        print_end_to_end(spec, workload, res)
        correct = correct and bool(res["correct"]) and rc == 0
        attempted += int(res["attempted"])
        failed += int(res["failed"])
        if workload in FLEET_WORKLOADS:
            digests[workload] = res["verdict_digest"]
        for name in spec["workloads"][workload]["end_to_end"]:
            m = res["metrics"].get(name)
            if m is not None and m["value"] is not None:
                metrics[f"{workload}.{name}"] = m
    if len(set(digests.values())) != 1:
        print(f"CHECK FAILED: fleet prefix verdict digests differ: "
              f"{digests}")
        correct = False
    else:
        print(f"fleet prefix verdict digests agree: {digests}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
