#!/usr/bin/env python3
"""GGA-Sim benchmark: build, run a workload, check it, report its metrics.

    python3 perfbench/run.py --workload sweep-fig5 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # each workload untraced, then traced
    python3 perfbench/run.py --record-goldens    # re-record perfbench/goldens/

Builds perfbench/CMakeLists.txt (the repository's CMake project plus the
driver) into .bench_build, runs the driver, reduces its run record with
perfbench/metrics.py, and prints every metric with its unit. The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. Run records, spans and
a machine fingerprint are kept under .bench_out/.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
# sim-amz is not in BENCHMARK.json: on the 4-core VM the benchmark was
# written on, its single serial pass drifted too far between runs to gate
# on (see README.md). It stays runnable by name and through "all".
WORKLOADS = ("sweep-fig5", "sim-amz", "serve-mixed")

sys.path.insert(0, HERE)
import metrics  # noqa: E402


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def clean_env():
    """The environment without GGA_* knobs, which would change the runs."""
    return {k: v for k, v in os.environ.items() if not k.startswith("GGA_")}


def build():
    """Configure (once) and build the driver and gga_serve; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "gga_perfbench", "gga_serve_bin"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=clean_env()).returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return True


def run_driver(workload, seed, seconds, trace, run_dir, deadline,
               extra=()):
    """Run gga_perfbench in its own process group; the record, or None."""
    os.makedirs(run_dir, exist_ok=True)
    record = os.path.join(run_dir, "record.json")
    spans = os.path.join(run_dir, "spans.jsonl")
    for stale in (record, spans):
        if os.path.exists(stale):
            os.remove(stale)
    cmd = [os.path.join(BUILD, "gga_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--record", record, "--spans", spans,
           "--work-dir", os.path.join(run_dir, "work"),
           "--serve-bin", os.path.join(BUILD, "gga", "gga_serve")]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            env=clean_env(), start_new_session=True)
    try:
        rc = proc.wait(timeout=max(10.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: driver overran its time; stopping it")
        rc = None
    finally:
        # The driver stops its gga_serve itself; this catches anything
        # left in the group after a crash or a timeout.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if rc != 0:
        log("perfbench: driver failed (exit %s)" % rc)
        return None, None
    with open(record) as f:
        rec = json.load(f)
    span_list = []
    if trace and os.path.exists(spans):
        with open(spans) as f:
            span_list = [json.loads(line) for line in f if line.strip()]
    return rec, span_list


def read_cmake_cache():
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def source_tree_hash():
    """sha256 over the sources the benchmark builds (for checkouts that
    are not git repositories)."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns
            if "__pycache__" not in d)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint():
    """Machine and build identity stored with every result."""
    fp = {"cores": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as f:
            fp["cpu"] = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), "unknown")
    except OSError:
        fp["cpu"] = "unknown"
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor") as f:
            fp["governor"] = f.read().strip()
    except OSError:
        fp["governor"] = "unreadable"
    cache = read_cmake_cache()
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        fp["compiler"] = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True
        ).stdout.splitlines()[0]
    except (OSError, IndexError):
        fp["compiler"] = compiler
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    fp["build_type"] = build_type
    fp["flags"] = " ".join(x for x in (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")) if x)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True)
        fp["commit"] = commit.stdout.strip() if commit.returncode == 0 else ""
    except OSError:
        fp["commit"] = ""
    fp["commit"] = fp["commit"] or "tree:" + source_tree_hash()
    return fp


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_golden(workload):
    path = os.path.join(HERE, "goldens", workload + ".json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)["units"]


def history_path():
    return os.path.join(OUT, "untraced_wall.json")


def untraced_wall(workload, seed):
    """wall_s of this checkout's untraced runs of the workload: the same
    seed's latest when there is one, else the median over seeds."""
    try:
        with open(history_path()) as f:
            hist = json.load(f).get(workload, {})
    except (OSError, ValueError):
        return None
    if str(seed) in hist:
        return hist[str(seed)]
    return statistics.median(hist.values()) if hist else None


def remember_wall(workload, seed, wall):
    try:
        with open(history_path()) as f:
            hist = json.load(f)
    except (OSError, ValueError):
        hist = {}
    hist.setdefault(workload, {})[str(seed)] = wall
    with open(history_path(), "w") as f:
        json.dump(hist, f, indent=1, sort_keys=True)


def cpu_ticks():
    """(steal, total) jiffies of the host CPUs, or None if unreadable."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def measure(workload, seed, seconds, trace, deadline, spec):
    """One run: (correct, attempted, failed, {name: value}) or None."""
    run_dir = os.path.join(OUT, "runs", "%s-s%d-t%d" % (workload, seed, trace))
    ticks0 = cpu_ticks()
    rec, spans = run_driver(workload, seed, seconds, trace, run_dir, deadline)
    ticks1 = cpu_ticks()
    if rec is None:
        return None
    attempted, failed = metrics.attempts_of(rec)
    e2e, notes = metrics.end_to_end(rec)
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # CPU time the hypervisor gave to other guests during the run: a
        # high share explains a slow run without any change to the code.
        notes["host_steal_share"] = round(
            (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]), 4)
    golden = load_golden(workload)
    if trace:
        values = metrics.per_layer(rec, spans, golden,
                                   untraced_wall(workload, seed))
        wanted = spec["per_layer"]
    else:
        remember_wall(workload, seed, e2e["wall_s"])
        values = e2e
        wanted = spec["end_to_end"]
    stats_match = metrics.stats_match(metrics.rows_of(rec), golden)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        log("perfbench: metrics not computed:", ", ".join(missing))
        return None
    result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
              for m in wanted}
    for failure in rec["failures"][:20]:
        log("perfbench: check failed:", failure)

    print("%s seed=%d trace=%d: %d attempted, %d failed, sim.stats_match=%d"
          % (workload, seed, trace, attempted, failed, stats_match))
    for name, m in result.items():
        print("  %-36s %18.6f %s" % (name, m["value"], m["unit"]))
    print("  samples: " + ", ".join("%s=%s" % kv for kv in sorted(notes.items())))
    fp = fingerprint()
    print("  machine: " + ", ".join("%s=%s" % kv for kv in sorted(fp.items())))
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump({"workload": workload, "seed": seed, "trace": trace,
                   "attempted": attempted, "failed": failed,
                   "sim.stats_match": stats_match, "notes": notes,
                   "metrics": result, "fingerprint": fp}, f, indent=1)
    return failed == 0, attempted, failed, result


def record_goldens(workloads, deadline):
    """Re-record the simulated-statistics digests of every unit a seed
    can select (run on the commit whose model the goldens describe)."""
    for workload in workloads:
        run_dir = os.path.join(OUT, "goldens", workload)
        rec, _ = run_driver(workload, 1, 1, 0, run_dir, deadline,
                            ["--cover-seeds", "--setups", "1"])
        if rec is None or rec["failures"]:
            return 1
        if workload == "serve-mixed":
            rows = rec["batch_rows"] + rec["cover_rows"]
        else:
            rows = metrics.rows_of(rec)
        units = {r["key"]: metrics.stats_digest(r) for r in rows}
        path = os.path.join(HERE, "goldens", workload + ".json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"units": units}, f, indent=1, sort_keys=True)
            f.write("\n")
        log("perfbench: recorded %d digests in %s" % (len(units), path))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-goldens", action="store_true")
    args = ap.parse_args()
    if not args.workload and not args.record_goldens:
        ap.error("--workload or --record-goldens is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    started = time.monotonic()
    spec = load_spec()
    built_before = os.path.exists(os.path.join(BUILD, "gga_perfbench"))
    if not build():
        return 1
    os.makedirs(OUT, exist_ok=True)
    # A run must end within 180 s; the first, which builds, within 900 s.
    deadline = started + (170 if built_before else 880)
    if args.record_goldens:
        return record_goldens(
            WORKLOADS if args.workload in (None, "all") else [args.workload],
            started + 3000)

    if args.workload != "all":
        res = measure(args.workload, args.seed, args.seconds, args.trace,
                      deadline, spec)
        if res is None:
            return 1
        correct, attempted, failed, result = res
    else:
        correct, attempted, failed, result = True, 0, 0, {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                res = measure(workload, args.seed, args.seconds, trace,
                              time.monotonic() + 170, spec)
                if res is None:
                    return 1
                correct &= res[0]
                attempted += res[1]
                failed += res[2]
                for name, m in res[3].items():
                    result[workload + "/" + name] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
