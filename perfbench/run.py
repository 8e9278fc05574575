#!/usr/bin/env python3
"""Build and run the wfpriv serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds perfbench/perfbench.exe with dune,
runs one workload in one process, prints every metric it measured (name,
value, unit, sample count), and as the last line one JSON object with
the metrics BENCHMARK.json lists: its end_to_end metrics for --trace 0,
its per_layer metrics for --trace 1. Exits non-zero, printing no JSON,
when the build fails, an answer check fails or a listed metric is
missing.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["serve_large_runs", "serve_many_entries", "ingest_while_serving"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root (no dune-project or lib/ here)")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run_exe(args):
    """Run the benchmark program; return (exit code, parsed output)."""
    try:
        proc = subprocess.run(
            [EXE] + args, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)
    sys.stderr.write(proc.stderr)
    metrics, result, notes = {}, None, []
    for line in proc.stdout.splitlines():
        parts = line.split()
        if parts[:1] == ["metric"] and len(parts) == 5:
            _, name, value, unit, n = parts
            metrics[name] = {"value": float(value), "unit": unit, "n": int(n)}
        elif parts[:1] == ["result"]:
            result = dict(kv.split("=", 1) for kv in parts[1:])
        elif line:
            notes.append(line)
    return proc.returncode, metrics, result, notes


def listed(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def missing(metrics, wanted):
    return [
        m["name"]
        for m in wanted
        if m["name"] not in metrics or metrics[m["name"]]["unit"] != m["unit"]
    ]


def main_run(a):
    build()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    code, metrics, result, notes = run_exe(args)
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print("%-34s %16.6g %-8s n=%d" % (name, m["value"], m["unit"], m["n"]))
    if code != 0 or result is None or result.get("correct") != "true":
        fail("run failed (exit %d)" % code, code or 1)
    wanted = listed(a.trace == 1)
    gone = missing(metrics, wanted)
    if gone:
        fail("metrics missing or with another unit: " + ", ".join(gone), 5)
    out = {
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(out))


def self_test():
    """Every workload at a tiny size prints every listed metric with its
    unit and passes its checks; a tampered reference is rejected."""
    build()
    for w in WORKLOADS:
        for trace in (0, 1):
            code, metrics, result, notes = run_exe(
                ["--workload", w, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"])
            if code != 0 or result is None or result.get("correct") != "true":
                fail("self-test: %s trace %d failed: %s" % (w, trace, notes), 1)
            gone = missing(metrics, listed(trace == 1))
            if gone:
                fail("self-test: %s trace %d lacks %s" % (w, trace, ", ".join(gone)), 1)
            print("self-test: %s trace %d: %d metrics, %s answers checked"
                  % (w, trace, len(metrics), result["checked"]))
        code, _, _, notes = run_exe(
            ["--workload", w, "--seed", "7", "--seconds", "1", "--trace", "0", "--tiny",
             "--tamper"])
        if code == 0 or not any(n.startswith("mismatch wrong answer") for n in notes):
            fail("self-test: %s accepted a tampered reference" % w, 1)
        print("self-test: %s rejects a tampered reference" % w)
    print("self-test ok")


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=16)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if a.self_test:
        self_test()
    elif a.workload is None:
        fail("--workload is required")
    else:
        main_run(a)


if __name__ == "__main__":
    main()
