#!/usr/bin/env bash
# Build the Release benchmarks and refresh the machine-readable perf
# trajectories tracked across PRs:
#   BENCH_engine.json  event-engine events/sec, wheel-vs-heap speedup,
#                      end-to-end PR/CC/SSSP run times (micro_substrate)
#   BENCH_graph.json   graph cold-start costs: synthesis, serial vs
#                      parallel CSR build, snapshot save/load (graph_build)
#   BENCH_serve.json   served throughput + per-lane latency percentiles
#                      under a closed-loop client mix (gga_serve + gga_loadgen)
#
# Usage: scripts/bench.sh [engine|graph|serve|all] [output.json]
#   suite default: all (outputs land at the repo root under the names
#   above; a second argument redirects the single-suite runs)
#   BUILD_DIR=... to reuse/redirect the build tree (default: build-bench).
#   BENCH_THREADS=N to pin the graph suite's thread budget (default:
#   the binary's GGA_SESSION_THREADS resolution).
#   BENCH_SERVE_SECONDS=S per-phase load duration (default 10)
#   BENCH_SERVE_SCALE=S / BENCH_SERVE_BATCH_SCALE=S workload scales for
#   the serve suite (defaults: the load generator's 0.05 / 0.1)
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
suite=${1:-all}
build_dir=${BUILD_DIR:-"$repo_root/build-bench"}

case "$suite" in
  engine|graph|serve|all) ;;
  *) echo "usage: scripts/bench.sh [engine|graph|serve|all] [output.json]" >&2
     exit 2 ;;
esac
if [[ "$suite" == all && $# -gt 1 ]]; then
  echo "a single output path needs a single suite (engine, graph, or serve)" >&2
  exit 2
fi

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release

if [[ "$suite" == engine || "$suite" == all ]]; then
  out=${2:-"$repo_root/BENCH_engine.json"}
  cmake --build "$build_dir" -j --target micro_substrate
  "$build_dir/micro_substrate" --json "$out"
  echo "wrote $out"
fi

if [[ "$suite" == graph || "$suite" == all ]]; then
  out=${2:-"$repo_root/BENCH_graph.json"}
  cmake --build "$build_dir" -j --target graph_build
  graph_args=(--json "$out")
  if [[ -n "${BENCH_THREADS:-}" ]]; then
    graph_args+=(--threads "$BENCH_THREADS")
  fi
  "$build_dir/graph_build" "${graph_args[@]}"
  echo "wrote $out"
fi

if [[ "$suite" == serve || "$suite" == all ]]; then
  out=${2:-"$repo_root/BENCH_serve.json"}
  cmake --build "$build_dir" -j --target gga_serve_bin gga_loadgen
  port_file=$(mktemp)
  rm -f "$port_file"
  "$build_dir/gga_serve" --port 0 --port-file "$port_file" --threads 4 &
  serve_pid=$!
  trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
  for _ in $(seq 1 100); do
    [[ -s "$port_file" ]] && break
    sleep 0.2
  done
  if [[ ! -s "$port_file" ]]; then
    echo "gga_serve did not write its port file" >&2
    exit 1
  fi
  loadgen_args=(--port "$(cat "$port_file")"
                --duration-s "${BENCH_SERVE_SECONDS:-10}"
                --json "$out")
  if [[ -n "${BENCH_SERVE_SCALE:-}" ]]; then
    loadgen_args+=(--scale "$BENCH_SERVE_SCALE")
  fi
  if [[ -n "${BENCH_SERVE_BATCH_SCALE:-}" ]]; then
    loadgen_args+=(--batch-scale "$BENCH_SERVE_BATCH_SCALE")
  fi
  "$build_dir/gga_loadgen" "${loadgen_args[@]}"
  kill "$serve_pid" 2>/dev/null || true
  wait "$serve_pid" 2>/dev/null || true
  trap - EXIT
  rm -f "$port_file"
  echo "wrote $out"
fi
