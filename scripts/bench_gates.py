#!/usr/bin/env python3
"""Run a Release benchmark suite five times and gate the medians.

Usage: scripts/bench_gates.py [engine|graph]   (no argument: both)

  engine  bench/micro_substrate: the time wheel against the binary-heap
          engine; each row's speedup_vs_heap must be >= 1.5.
  graph   bench/graph_build --threads 4, gated on the largest preset's
          4-thread row: build_speedup >= 2.0, synth_speedup >= 2.5,
          mmap_load_ms <= snapshot_load_ms, load_vs_rebuild >= 2.0.

Each suite configures build-bench/ in Release, builds its binary, runs it
five times, and writes every run plus the medians to
build-bench/bench_gates_<suite>.json. One run of either suite can miss a
bound on healthy code, so every bound applies to the median of the five.
The script prints each median and exits 1 if any misses its bound.
GGA_* environment variables are removed before the runs.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-bench")
RUNS = 5


def engine_values(run):
    return {name + ".speedup_vs_heap": row["speedup_vs_heap"]
            for name, row in run["engine"].items()}


def graph_values(run):
    row = next(r for r in run["rows"]
               if r["preset"] == run["largest_preset"]
               and r["threads"] == run["threads"])
    return {key: row[key] for key in ("build_speedup", "synth_speedup",
                                      "mmap_load_ms", "snapshot_load_ms",
                                      "load_vs_rebuild")}


# suite: (CMake target, arguments besides --json, gated values of one
# run, gates over the medians as (value, operator, number or value)).
SUITES = {
    "engine": ("micro_substrate", [], engine_values, [
        ("bulk_schedule_run.speedup_vs_heap", ">=", 1.5),
        ("chained_steady_state.speedup_vs_heap", ">=", 1.5)]),
    "graph": ("graph_build", ["--threads", "4"], graph_values, [
        ("build_speedup", ">=", 2.0),
        ("synth_speedup", ">=", 2.5),
        ("mmap_load_ms", "<=", "snapshot_load_ms"),
        ("load_vs_rebuild", ">=", 2.0)]),
}


def run_suite(suite, env):
    """Build, run and gate one suite; True when every median passes."""
    target, args, values_of, gate_list = SUITES[suite]
    subprocess.run(["cmake", "-B", BUILD, "-S", ROOT,
                    "-DCMAKE_BUILD_TYPE=Release"], check=True, env=env)
    subprocess.run(["cmake", "--build", BUILD, "-j",
                    str(os.cpu_count() or 1), "--target", target],
                   check=True, env=env)
    out = os.path.join(BUILD, "bench_gates_%s_run.json" % suite)
    runs = []
    for i in range(RUNS):
        print("[%s] run %d of %d" % (suite, i + 1, RUNS), flush=True)
        subprocess.run([os.path.join(BUILD, target), "--json", out] + args,
                       check=True, env=env)
        with open(out) as f:
            runs.append(json.load(f))
    os.remove(out)

    values = [values_of(run) for run in runs]
    medians = {name: statistics.median(v[name] for v in values)
               for name in values[0]}
    gates = []
    for name, op, bound in gate_list:
        limit = medians[bound] if isinstance(bound, str) else bound
        ok = medians[name] >= limit if op == ">=" else medians[name] <= limit
        gates.append({"value": name, "median": medians[name], "op": op,
                      "bound": bound, "ok": ok})
        shown = ("%s (median %g)" % (bound, limit)
                 if isinstance(bound, str) else "%g" % bound)
        print("%s %s: median %g %s %s; runs %s%s" % (
            suite, name, medians[name], op, shown,
            ", ".join("%g" % v[name] for v in values),
            "" if ok else "  MISSED"), flush=True)
    ok = all(g["ok"] for g in gates)
    with open(os.path.join(BUILD, "bench_gates_%s.json" % suite), "w") as f:
        json.dump({"suite": suite, "runs": runs, "medians": medians,
                   "gates": gates, "ok": ok}, f, indent=1)
        f.write("\n")
    return ok


def main():
    if len(sys.argv) > 2 or sys.argv[1:] and sys.argv[1] not in SUITES:
        sys.exit("usage: scripts/bench_gates.py [engine|graph]")
    env = {k: v for k, v in os.environ.items() if not k.startswith("GGA_")}
    try:
        results = [run_suite(suite, env)
                   for suite in sys.argv[1:] or list(SUITES)]
    except subprocess.CalledProcessError as err:
        sys.exit("bench_gates: %s exited %d" % (" ".join(err.cmd),
                                               err.returncode))
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
