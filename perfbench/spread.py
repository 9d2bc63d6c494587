#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

The spread of a metric is the distance between the first and third
quartile of its values (Python's ``statistics.quantiles(values, n=4)``)
as a share of their median, the same figure the benchmark's bounds in
``BENCHMARK.json`` are checked against.

    python3 perfbench/spread.py --workload races-cold --seeds 1-5 [--seconds 20] [--trace 0]

Runs the already-built binary (build it first with
``cargo build --release --manifest-path perfbench/Cargo.toml``) from the
repository root, one run at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    target = os.environ.get("CARGO_TARGET_DIR", "perfbench/target")
    binary = os.path.join(target, "release", "bdrst-perfbench")
    values = {}
    for seed in seeds(args.seeds):
        cmd = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if out.returncode != 0:
            sys.exit(f"seed {seed} failed ({out.returncode}):\n{out.stdout}{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread == spread:
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:32} median {med:14.6g} spread {spread:8.4f} "
              f"bound {bound if bound is not None else '-':>5} {flag}")


if __name__ == "__main__":
    main()
