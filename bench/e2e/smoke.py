#!/usr/bin/env python3
"""autra_e2e_smoke: every workload at its --smoke size, at 1 and 4 threads.

  python3 bench/e2e/smoke.py PATH/TO/autra_e2e

Passes when every run exits 0 against the smoke pins in pins.txt, the pinned
outputs are identical at 1 and 4 threads, and a perturbed pin makes the
binary exit 1. Writes perturbed_pins.txt into the working directory.
"""
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
PINS = os.path.join(HERE, "pins.txt")


def run(binary, workload, threads, pins):
    proc = subprocess.run(
        [binary, "--workload", workload, "--smoke", "--threads", str(threads),
         "--pins", pins],
        capture_output=True, text=True, timeout=120)
    pinned = sorted(l for l in proc.stderr.splitlines()
                    if l.startswith("pin: "))
    return proc.returncode, pinned, proc.stderr


def main():
    binary = sys.argv[1]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    with open(PINS) as f:
        pin_lines = [l.split() for l in f if l.strip() and l[0] != "#"]
    failures = []
    for w in workloads:
        if not any(p[0] == w and p[1] == "smoke" and p[2] == "1"
                   for p in pin_lines):
            failures.append(f"{w}: no smoke pin for seed 1 in pins.txt")

    jobs = [(w, t) for w in workloads for t in (1, 4)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = dict(zip(jobs, pool.map(
            lambda job: run(binary, job[0], job[1], PINS), jobs)))
    for w in workloads:
        for t in (1, 4):
            code, _, err = results[(w, t)]
            if code != 0:
                failures.append(f"{w} --threads {t}: exit {code}\n{err}")
        if results[(w, 1)][1] != results[(w, 4)][1]:
            failures.append(f"{w}: pinned outputs differ between 1 and 4 "
                            f"threads: {results[(w, 1)][1]} vs "
                            f"{results[(w, 4)][1]}")

    # A perturbed pin must fail the run.
    target = next(p for p in pin_lines if p[1] == "smoke" and p[2] == "1")
    value = target[4]
    if target[3] == "checksum":
        value = repr(float(value) + 1.0)
    else:
        value = value[:-1] + ("2" if value[-1] == "1" else "1")
    perturbed = "perturbed_pins.txt"
    with open(perturbed, "w") as f:
        f.write(" ".join(target[:4] + [value]) + "\n")
    code, _, _ = run(binary, target[0], 1, perturbed)
    if code != 1:
        failures.append(f"a perturbed {target[0]} pin exited {code}, not 1")

    for f in failures:
        print("FAIL:", f)
    print("autra_e2e_smoke:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
