#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload sweep-fig5 --seeds 1-10 [--seconds 30]

Runs perfbench/run.py once per seed and prints, for each metric, the
median and the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]

    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            print("seed %d failed:\n%s" % (seed, out.stderr[-2000:]))
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: outputs incorrect" % seed)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)

    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med
        print("%-22s median %12.5g  spread %6.3f  bound %.2f  %s" % (
            m["name"], med, share, m["bound"],
            "ok" if share < m["bound"] / 3 else
            ("within bound" if share <= m["bound"] else "TOO WIDE")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
