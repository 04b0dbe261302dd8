#!/usr/bin/env python3
"""Build and run the DS-scale benchmark.

One workload, as a harness calls it (the result is the last stdout line):

    python3 dsbench/run.py --workload solve-ds-k4 --seed 1 --seconds 6 --trace 0

Every workload once, printing every metric by name with its unit:

    python3 dsbench/run.py --all --seed 42

Steadiness: each workload on N seeds, then per end-to-end metric the
median, the quartiles and the quartile spread relative to the bound in
BENCHMARK.json, and for the times reported at the reference speed also
the spread of the raw times:

    python3 dsbench/run.py --steady 10 [--workload NAME ...] [--seed 100]

The benchmark is built from source first (`cargo build --release`,
target directory `$CARGO_TARGET_DIR`, default `.bench_build`). Inputs,
server state and traces go to `.dsbench/` at the repository root. Exits
nonzero when the build fails, a run fails or a correctness check fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["solve-ds-k4", "serve-write-ds-k4", "serve-read-ds-k4"]
RUN_TIMEOUT_S = 170


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's progress goes to stderr; stdout stays for the result line.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("dsbench: build failed")
    return os.path.join(target, "release", "dsbench")


def run_once(binary, workload, seed, seconds, trace, echo):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work", os.path.join(ROOT, ".dsbench")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"dsbench: {workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result, done.stdout


def bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def steady(binary, workloads, runs, first_seed, seconds):
    limits = bounds()
    failed = False
    print("| workload | metric | unit | median | q1 | q3 | spread | bound | spread/bound "
          "| raw spread |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        values = {}
        raw = {}
        units = {}
        for i in range(runs):
            seed = first_seed + i
            code, result, out = run_once(binary, workload, seed, seconds, 0, False)
            if code != 0 or result is None or not result["correct"]:
                sys.stderr.write(out)
                sys.stderr.write(f"dsbench: {workload} seed {seed} failed\n")
                failed = True
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            # The raw values behind the metrics reported at the reference
            # speed are the text lines `raw.<name>`.
            retaken = "?"
            for line in out.splitlines():
                found = re.match(r"(?:raw\.)?(\S+)\s+([0-9.e+-]+) ", line)
                if found and (line.startswith("raw.") or found.group(1) == "calib.probe_ms"):
                    raw.setdefault(found.group(1), []).append(float(found.group(2)))
                count = re.search(r"(\d+) retaken", line)
                if count:
                    retaken = count.group(1)
            line = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
            probe = raw.get("calib.probe_ms", [0])[-1]
            sys.stderr.write(f"# {workload} seed {seed}: probe={probe:.4g} "
                             f"(retaken {retaken}) {line}\n")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3, s = spread(vals)
            bound = limits.get(name)
            ratio = f"{s / bound:.2f}" if bound else "-"
            r = f"{spread(raw[name])[3]:.4f}" if len(raw.get(name, [])) == len(vals) else "-"
            print(f"| {workload} | {name} | {units[name]} | {med:.6g} | {q1:.6g} | {q3:.6g} "
                  f"| {s:.4f} | {bound if bound is not None else '-'} | {ratio} | {r} |")
        sys.stdout.flush()
    return 1 if failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=6)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true", help="run every workload once")
    p.add_argument("--steady", type=int, metavar="N", help="run each workload on N seeds")
    args = p.parse_args()

    binary = build()
    if args.steady:
        sys.exit(steady(binary, args.workload or WORKLOADS, args.steady, args.seed, args.seconds))
    if args.all:
        worst = 0
        for workload in WORKLOADS:
            print(f"## {workload} (seed {args.seed})")
            code, _, _ = run_once(binary, workload, args.seed, args.seconds, args.trace, True)
            worst = worst or code
        sys.exit(worst)
    if not args.workload or len(args.workload) != 1:
        p.error("give exactly one --workload (or --all / --steady N)")
    code, _, _ = run_once(binary, args.workload[0], args.seed, args.seconds, args.trace, True)
    sys.exit(code)


if __name__ == "__main__":
    main()
