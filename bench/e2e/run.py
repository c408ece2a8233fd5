#!/usr/bin/env python3
"""Builds autra_e2e from this checkout and runs it.

One run (the last stdout line is the result JSON):
  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, one process each:
  python3 bench/e2e/run.py --workload all --seed N --seconds S --trace 0|1

Repeatability check: N rounds that alternate the workloads, each round with
the next seed, then each end-to-end metric's median, quartiles and spread
(IQR / median) against its bound in BENCHMARK.json:
  python3 bench/e2e/run.py --runs N [--workload NAME|all] [--seconds S]

The build goes to .bench_build/ at the checkout root; span traces of
--trace 1 runs go to .bench_build/traces/.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "autra_e2e")
BINARY = os.path.join(BUILD, "autra_e2e")
PINS = os.path.join(HERE, "pins.txt")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_binary(workload, seed, seconds, trace, threads, echo=True):
    """Runs one workload in its own process; returns (exit code, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--threads", str(threads), "--pins", PINS]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{workload}-seed{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def repeatability(bench, workloads, runs, seed, seconds, threads):
    """Alternates the workloads over `runs` seeds and reports spreads."""
    values = {w: {} for w in workloads}
    for i in range(runs):
        for w in workloads:
            code, result = run_binary(w, seed + i, seconds, 0, threads,
                                      echo=False)
            if code != 0 or result is None or not result["correct"]:
                log(f"run.py: {w} seed {seed + i} failed (exit {code})")
                return 1
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            log(f"run.py: round {i + 1}/{runs} {w}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    worst = (0.0, "")
    print(f"{'workload':20} {'metric':16} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            flag = "" if spread < bound / 3 else (
                " <- above bound/3" if spread < bound else " <- ABOVE BOUND")
            worst = max(worst, (spread / bound, f"{w} {name}"))
            print(f"{w:20} {name:16} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {bound:6.0%}{flag}")
    print(f"largest spread / bound: {worst[0]:.2f} ({worst[1]})")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--runs", type=int, default=0)
    args = p.parse_args()

    if not build():
        log("run.py: build failed")
        return 1
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        log(f"run.py: unknown workload {args.workload}; one of {names}")
        return 2
    seconds = args.seconds or bench["run_seconds"]
    if args.runs == 1:
        log("run.py: --runs needs at least 2 rounds for quartiles")
        return 2
    if args.runs > 0:
        return repeatability(bench, workloads, args.runs, args.seed, seconds,
                             args.threads)
    status = 0
    for w in workloads:
        code, _ = run_binary(w, args.seed, seconds, args.trace, args.threads)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
