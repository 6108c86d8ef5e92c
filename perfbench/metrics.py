"""Reductions from a gga_perfbench run record to the reported metrics.

Free of I/O, so perfbench/test_metrics.py can test the rules the
benchmark relies on: the tail percentile, span self time, the failure
tally, and the simulated-statistics digest.
"""

import hashlib
import math
import statistics
from collections import defaultdict

# A tail percentile is reported only with at least this many samples
# beyond it.
MIN_BEYOND = 10

MIB = 1024.0 * 1024.0

# MemStats fields folded into a unit's digest. A fixed list: a counter
# added later does not change the digests of the existing goldens.
MEM_FIELDS = (
    "l1_load_hits", "l1_load_misses", "l1_stores", "l1_atomic_hits",
    "ownership_requests", "ownership_forwards", "l2_atomics", "l2_reads",
    "l2_read_misses", "l2_writes", "flushed_lines",
    "acquire_invalidated_lines", "recalls", "dram_reads", "dram_writes",
    "l1_retries", "l2_read_lag_sum", "l2_atomic_lag_sum",
)
STALL_FIELDS = ("busy", "comp", "data", "sync", "idle")

PROP = {"T": "pull", "S": "push", "D": "pushpull"}
COH = {"G": "gpu", "D": "denovo"}
CON = {"0": "drf0", "1": "drf1", "R": "drfrlx"}
APPS = ("PR", "SSSP", "MIS", "CLR", "BC", "CC")


def percentile(samples, q):
    """Nearest-rank q-quantile (q in (0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    k = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[k]


def tail_quantile(n, q):
    """The quantile to report for a q tail over n samples.

    q itself when at least MIN_BEYOND samples lie beyond it; otherwise
    the highest quantile that keeps MIN_BEYOND beyond. When even the
    median has fewer than MIN_BEYOND beyond it, no tail percentile is
    measurable and the maximum is reported instead.
    """
    if n <= 0:
        raise ValueError("no samples")
    used = min(q, (n - MIN_BEYOND) / n)
    return used if used >= 0.5 else 1.0


def tail(samples, q):
    """(value, quantile used) of the q tail of samples."""
    used = tail_quantile(len(samples), q)
    return percentile(samples, used), used


def self_times(spans):
    """Map span id -> self time: its duration minus the part of its
    interval that its child spans cover (overlapping children counted
    once)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        t0, t1 = s["t0"], s["t1"]
        covered = 0
        start = end = None
        for a, b in sorted((max(c["t0"], t0), min(c["t1"], t1))
                           for c in children.get(s["id"], ())):
            if b <= a:
                continue
            if end is None or a > end:
                if end is not None:
                    covered += end - start
                start, end = a, b
            else:
                end = max(end, b)
        if end is not None:
            covered += end - start
        out[s["id"]] = (t1 - t0) - covered
    return out


def layer_self_ms(spans):
    """Total self time per layer, milliseconds."""
    own = self_times(spans)
    total = defaultdict(float)
    for s in spans:
        total[s["layer"]] += own[s["id"]] / 1e6
    return total


def tally(attempts):
    """(attempted, failed). An attempt fails unless it completed; a
    refused request (HTTP 429) is a failure like any other."""
    failed = sum(1 for a in attempts if not a["ok"] or a["status"] == 429)
    return len(attempts), failed


def stats_digest(row):
    """Digest of a unit's exact simulated statistics and output."""
    parts = [str(row["cycles"]), str(row["kernels"]), str(row["events"])]
    parts += [str(row["mem"][f]) for f in MEM_FIELDS]
    parts += [repr(float(row["breakdown"][f])) for f in STALL_FIELDS]
    out = row.get("output")
    parts.append("-" if out is None else "%s:%s:%s" % (
        out["kind"], out["elements"], out["hash"]))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:20]


def stats_match(rows, golden):
    """1 when every row's digest equals its golden entry, else 0."""
    if not rows:
        return 0
    for row in rows:
        if golden.get(row["key"]) != stats_digest(row):
            return 0
    return 1


def sim_counts(rows):
    """Exact modelled-design counts summed over rows (one pass)."""
    def tot(f):
        return sum(f(r) for r in rows)

    def mem(name):
        return tot(lambda r: r["mem"][name])

    stall = {f: tot(lambda r, f=f: r["breakdown"][f]) for f in STALL_FIELDS}
    cycles_all = sum(stall.values())
    hits, misses = mem("l1_load_hits"), mem("l1_load_misses")
    return {
        "sim.events": tot(lambda r: r["events"]),
        "sim.cycles": tot(lambda r: r["cycles"]),
        "sim.kernels": tot(lambda r: r["kernels"]),
        "sim.l1_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "sim.l2_miss_ratio": (mem("l2_read_misses") / mem("l2_reads")
                              if mem("l2_reads") else 0.0),
        "sim.dram_reads": mem("dram_reads"),
        "sim.l2_atomics": mem("l2_atomics"),
        "sim.ownership_forwards": mem("ownership_forwards"),
        "sim.flushed_lines": mem("flushed_lines"),
        "sim.l1_retries": mem("l1_retries"),
        "sim.stall_sync_frac": stall["sync"] / cycles_all if cycles_all else 0.0,
        "sim.stall_data_frac": stall["data"] / cycles_all if cycles_all else 0.0,
    }


def ns_per_event(units):
    """Host ns per simulated event: overall, per design dimension value,
    and per app (0 where no unit of that kind ran)."""
    ns = defaultdict(float)
    events = defaultdict(int)
    for u in units:
        host = u["end_ns"] - u["start_ns"]
        cfg = u["config"]
        for group in ("", PROP[cfg[0]], COH[cfg[1]], CON[cfg[2]], u["app"]):
            ns[group] += host
            events[group] += u["row"]["events"]
    out = {}
    names = [""] + list(PROP.values()) + list(COH.values()) + \
        list(CON.values()) + list(APPS)
    for group in names:
        name = "sim.ns_per_event" + ("." + group if group else "")
        out[name] = ns[group] / events[group] if events[group] else 0.0
    return out


def _offline_units(record):
    return [u for p in record["passes"] for u in p["units"]]


def _offline_end_to_end(record):
    passes = record["passes"]
    units = _offline_units(record)
    unit_ms = [(u["end_ns"] - u["start_ns"]) / 1e6 for u in units]
    p95, _ = tail(unit_ms, 0.95)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "batch_job_p50_s": statistics.median(p["job_s"] for p in passes),
        "jobs_per_s": len(units) / sum(p["wall_s"] for p in passes),
        "interactive_p50_ms": statistics.median(unit_ms),
        "interactive_p95_ms": p95,
    }, {"interactive_samples": len(unit_ms),
        "interactive_p95_quantile": tail_quantile(len(unit_ms), 0.95)}


def _served_end_to_end(record):
    attempts = record["attempts"]
    inter = [(a["done_ns"] - a["post_ns"]) / 1e6 for a in attempts
             if a["kind"] == "interactive" and a["ok"]]
    batch = [a for a in attempts if a["kind"] == "batch" and a["ok"]]
    p95, _ = tail(inter, 0.95)
    done = sum(1 for a in attempts if a["ok"])
    return {
        "wall_s": statistics.median((a["done_ns"] - a["post_ns"]) / 1e9
                                    for a in batch),
        "batch_job_p50_s": statistics.median(
            (a["render_ns"] - a["post_ns"]) / 1e9 for a in batch),
        "jobs_per_s": done / record["window_s"],
        "interactive_p50_ms": statistics.median(inter),
        "interactive_p95_ms": p95,
    }, {"interactive_samples": len(inter),
        "interactive_p95_quantile": tail_quantile(len(inter), 0.95),
        "batch_samples": len(batch)}


def end_to_end(record):
    """(metrics, notes) of an untraced run record."""
    served = record["workload"] == "serve-mixed"
    metrics, notes = (_served_end_to_end(record) if served
                      else _offline_end_to_end(record))
    metrics["setup_s"] = statistics.median(record["setup_s"])
    metrics["peak_rss_mb"] = record["peak_rss_mb"]
    notes["setups"] = len(record["setup_s"])
    notes["passes"] = len(record.get("passes", ())) or notes.get(
        "batch_samples", 0)
    return metrics, notes


def attempts_of(record):
    """(attempted, failed) of a run: served jobs, or offline units, plus
    one failure per failed output check."""
    if record["workload"] == "serve-mixed":
        attempted, failed = tally(record["attempts"])
    else:
        attempted, failed = len(_offline_units(record)), 0
    return attempted, failed + len(record["failures"])


def rows_of(record):
    """The result rows whose simulated statistics are checked."""
    if record["workload"] == "serve-mixed":
        return record["batch_rows"] + record["interactive_rows"]
    return [u["row"] for u in _offline_units(record)]


def _zeros(names):
    return {n: 0.0 for n in names}


SERVE_LAYER = (
    "serve.admit_ms_p50", "serve.admit_ms_p95", "serve.wait_ms_p50",
    "serve.polls_per_job", "serve.unit_ms_mean", "serve.render_ms_p50",
    "serve.journal_records", "serve.rejected", "serve.steals",
    "serve.graph_misses",
)
API_LAYER = ("api.queue_wait_ms_p50", "api.queue_wait_ms_max",
             "api.busy_frac", "api.drain_s", "api.steals")
SIM_HOST = ("sim.unit_ms_p50", "sim.unit_ms_max")


def _offline_layers(record, spans):
    passes = record["passes"]
    units = _offline_units(record)
    setups = len(record["setup_s"])
    layer_ms = layer_self_ms(spans)
    after, final = record["graph_after_setup"], record["graph"]
    waits = [(u["start_ns"] - u["submit_ns"]) / 1e6 for u in units]
    unit_ms = [(u["end_ns"] - u["start_ns"]) / 1e6 for u in units]
    busy, drain = [], []
    for p in passes:
        host = sum(u["end_ns"] - u["start_ns"] for u in p["units"])
        busy.append(host / 1e9 / (p["width"] * p["wall_s"]))
        last_start = max(u["start_ns"] for u in p["units"])
        drain.append(p["wall_s"] - last_start / 1e9)
    out = {
        "graph.resolve_ms": layer_ms["graph"] / setups,
        "graph.store_misses": after["misses"] / setups,
        "graph.store_hits": after["hits"] / setups +
        (final["hits"] - after["hits"]) / len(passes),
        "graph.resident_mb": final["resident_bytes"] / MIB,
        "model.predict_ms": layer_ms["model"] / setups,
        "api.queue_wait_ms_p50": statistics.median(waits),
        "api.queue_wait_ms_max": max(waits),
        "api.busy_frac": statistics.median(busy),
        "api.drain_s": statistics.median(drain),
        "api.steals": statistics.median(p["steals"] for p in passes),
        "sim.unit_ms_p50": statistics.median(unit_ms),
        "sim.unit_ms_max": max(unit_ms),
        "eval.serialize_ms": layer_ms["eval"] / len(passes),
        "harness.assemble_ms": layer_ms["harness"] / len(passes),
        "harness.pred_is_best": passes[0].get("pred_is_best", 0.0),
        "harness.pred_over_best_geomean":
            passes[0].get("pred_over_best_geomean", 0.0),
    }
    out.update(ns_per_event(units))
    out.update(sim_counts([u["row"] for u in passes[0]["units"]]))
    out.update(_zeros(SERVE_LAYER))
    return out


def _served_layers(record):
    """Serve-layer metrics; /stats counters are deltas over the window."""
    attempts = record["attempts"]
    stats, before = record["stats"], record["stats_before"]
    ok = [a for a in attempts if a["ok"]]
    inter = [a for a in ok if a["kind"] == "interactive"]
    batch = [a for a in ok if a["kind"] == "batch"]
    admit = [(a["admit_ns"] - a["post_ns"]) / 1e6 for a in ok]
    admit_p95, _ = tail(admit, 0.95)

    def hist_sum(s, field):
        return sum(h[field] for h in s["unit_latency_ms_by_app"].values())

    unit_count = hist_sum(stats, "count") - hist_sum(before, "count")
    unit_ms = hist_sum(stats, "total_ms") - hist_sum(before, "total_ms")
    store, store0 = stats["graph_store"], before["graph_store"]
    steals = (stats["executor"]["steals_total"] -
              before["executor"]["steals_total"])
    misses = store["misses"] - store0["misses"]
    out = {
        "graph.resolve_ms": 0.0,
        "graph.store_misses": misses,
        "graph.store_hits": store["hits"] - store0["hits"],
        "graph.resident_mb": store["resident_bytes"] / MIB,
        "model.predict_ms": 0.0,
        "eval.serialize_ms": 0.0,
        "harness.assemble_ms": 0.0,
        "harness.pred_is_best": 0.0,
        "harness.pred_over_best_geomean": 0.0,
        "serve.admit_ms_p50": statistics.median(admit),
        "serve.admit_ms_p95": admit_p95,
        "serve.wait_ms_p50": statistics.median(
            (a["done_ns"] - a["admit_ns"]) / 1e6 for a in inter),
        "serve.polls_per_job": sum(a["polls"] for a in ok) / len(ok),
        "serve.unit_ms_mean": unit_ms / unit_count if unit_count else 0.0,
        "serve.render_ms_p50": statistics.median(
            (a["render_ns"] - a["done_ns"]) / 1e6 for a in batch),
        # /stats keeps only the live record count (0 once every job is
        # done); each finished job rewrites the journal once, so count
        # those rewrites over the window.
        "serve.journal_records":
            stats["journal"]["compactions_total"] -
            before["journal"]["compactions_total"],
        "serve.rejected": sum(1 for a in attempts if a["status"] == 429),
        "serve.steals": steals,
        "serve.graph_misses": misses,
    }
    out.update(_zeros(API_LAYER + SIM_HOST))
    out["api.steals"] = steals
    out["api.busy_frac"] = unit_ms / 1e3 / (
        stats["executor"]["threads"] * record["window_s"])
    out.update(ns_per_event([]))
    out.update(sim_counts(record["batch_rows"]))
    return out


def per_layer(record, spans, golden, untraced_wall_s):
    """Per-layer metrics of a traced run record and its spans.

    untraced_wall_s is the wall_s of an untraced run of the same
    workload (None when there is none yet); trace.overhead_s is the
    traced wall_s minus it.
    """
    if record["workload"] == "serve-mixed":
        out = _served_layers(record)
    else:
        out = _offline_layers(record, spans)
    attempted, failed = attempts_of(record)
    out["error_rate"] = failed / attempted
    out["sim.stats_match"] = stats_match(rows_of(record), golden)
    wall = end_to_end(record)[0]["wall_s"]
    out["trace.overhead_s"] = (wall - untraced_wall_s
                               if untraced_wall_s is not None else 0.0)
    return out
