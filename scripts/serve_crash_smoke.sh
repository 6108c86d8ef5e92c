#!/usr/bin/env bash
# Crash-recovery smoke of the resident service: prove that a gga_serve
# killed without warning loses no work. Phase A arms a GGA_FAULTS crash
# point so the server _exits(41) immediately after journaling an
# admission — the job must be back after restart. Phase B runs the
# Figure 5 manifest as a 2-shard remote job, lets one worker finish one
# shard, SIGKILLs the server while the other shard's lease is held,
# restarts on the same --state-dir, and asserts the recovered job
# finishes with ZERO completed shards re-executed (orchestrator
# counters) and a /render byte-identical to the offline pipeline. The
# journal's layout is checked too: after phase A's restart STATE/jobs
# holds exactly the recovered job's file, and once that job is done
# STATE holds only empty jobs/ and parts/. Also smokes --worker-token
# (an unauthenticated register must 401).
#
# Usage: scripts/serve_crash_smoke.sh [scale]
#   scale   manifest scale (default 0.05)
#   BUILD_DIR=... to reuse/redirect the build tree (default: build).
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
scale=${1:-0.05}
build_dir=${BUILD_DIR:-"$repo_root/build"}
work=$(mktemp -d)
state="$work/state"

cleanup() {
  for pid in "${serve_pid:-}" "${worker_pid:-}"; do
    if [[ -n "$pid" ]]; then
      kill -9 "$pid" 2>/dev/null || true
    fi
  done
  wait 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

cmake -B "$build_dir" -S "$repo_root" > /dev/null
cmake --build "$build_dir" -j --target \
  gga_manifest gga_worker gga_merge gga_serve_bin > /dev/null

# --- offline reference: the single-process pipeline ----------------------

"$build_dir/gga_manifest" fig5 --scale "$scale" --out "$work/fig5.json"
"$build_dir/gga_worker" --manifest "$work/fig5.json" --shard 0/1 \
  --threads 4 --out "$work/all.json"
"$build_dir/gga_merge" --manifest "$work/fig5.json" --render \
  "$work/all.json" > "$work/reference.txt"

start_serve() {
  # $1: extra env assignment ("" for none). Writes the bound port to
  # $work/port and sets serve_pid.
  rm -f "$work/port"
  env ${1:+"$1"} "$build_dir/gga_serve" --port 0 --port-file "$work/port" \
    --state-dir "$state" --worker-token hunter2 \
    --threads 2 --lease-ms 8000 --retry-base-ms 100 --retry-cap-ms 500 \
    --max-attempts 10 --tick-ms 50 --drain-ms 2000 &
  serve_pid=$!
  for _ in $(seq 100); do
    [[ -s "$work/port" ]] && break
    sleep 0.1
  done
  port=$(cat "$work/port")
}

submit_remote() {
  # Submits the fig5 manifest as a 2-shard remote job; prints the job id.
  python3 - "$port" "$work" <<'EOF'
import json, sys, urllib.request
port, work = sys.argv[1], sys.argv[2]
with open(f"{work}/fig5.json") as f:
    manifest = json.load(f)
body = json.dumps({"manifest": manifest, "execution": "remote",
                   "shards": 2, "tenant": "smoke"}).encode()
req = urllib.request.Request(f"http://127.0.0.1:{port}/v1/jobs",
                             data=body, method="POST")
with urllib.request.urlopen(req) as r:
    assert r.status == 202, r.status
    print(json.loads(r.read().decode())["id"])
EOF
}

# --- phase A: crash between journal appends ------------------------------

echo "phase A: crash point after the admission append"
start_serve "GGA_FAULTS=crash.journal.after-append=1"

set +e
submit_remote > "$work/job_a" 2>/dev/null
submit_status=$?
wait "$serve_pid"
serve_status=$?
set -e
serve_pid=""
if [[ "$serve_status" -ne 41 ]]; then
  echo "serve exited with $serve_status, expected the crash point's 41" >&2
  exit 1
fi
# The client may or may not have gotten its 202 out before the process
# died — either way the admission record is durable.
echo "serve died at the crash point (exit 41, submit status $submit_status)"

start_serve ""
python3 - "$port" <<'EOF'
import json, sys, urllib.request
port = sys.argv[1]
with urllib.request.urlopen(f"http://127.0.0.1:{port}/stats") as r:
    stats = json.loads(r.read().decode())
assert stats["journal"]["recovered_jobs"] == 1, stats["journal"]
assert stats["jobs"]["total"] == 1, stats["jobs"]
print("phase A: admitted job survived the crash")
EOF
# Reuse the recovered job for phase B: it is the same 2-shard fig5 job.
job=$(python3 -c '
import json, sys, urllib.request
with urllib.request.urlopen(f"http://127.0.0.1:{sys.argv[1]}/v1/jobs") as r:
    jobs = json.loads(r.read().decode())["jobs"]
assert len(jobs) == 1, jobs
print(jobs[0]["id"])' "$port")
# One file per live job: the recovered job's, and nothing else.
live_files=("$state"/jobs/*)
if [[ "${live_files[*]}" != "$state/jobs/$job.jsonl" ]]; then
  echo "$state/jobs holds ${live_files[*]}, expected only $job.jsonl" >&2
  exit 1
fi
echo "phase A passed (recovered $job)"

# --- worker auth smoke ---------------------------------------------------

python3 - "$port" <<'EOF'
import json, sys, urllib.error, urllib.request
port = sys.argv[1]
req = urllib.request.Request(
    f"http://127.0.0.1:{port}/v1/workers/register",
    data=json.dumps({"name": "intruder"}).encode(), method="POST")
try:
    urllib.request.urlopen(req)
    raise SystemExit("unauthenticated register was accepted")
except urllib.error.HTTPError as e:
    assert e.code == 401, e.code
print("unauthenticated worker register correctly rejected (401)")
EOF

# --- phase B: SIGKILL mid-remote-job with a held lease -------------------

echo "phase B: one shard done, then SIGKILL with the other lease held"
"$build_dir/gga_worker" --connect "$port" --token hunter2 --name first \
  --poll-ms 50 --threads 4 --idle-exit-ms 3000 &
worker_pid=$!

# Wait until exactly one shard completed and the other is still leased
# out — the most damning instant to die.
python3 - "$port" <<'EOF'
import json, sys, time, urllib.request
port = sys.argv[1]
deadline = time.time() + 600
while True:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/stats") as r:
        orch = json.loads(r.read().decode())["orchestrator"]
    if orch["completed_shards_total"] == 1 and orch["shards_assigned"] == 1:
        print("one shard done, one lease held:", json.dumps(orch))
        break
    assert orch["completed_shards_total"] < 2, orch
    assert time.time() < deadline, f"timed out: {orch}"
    time.sleep(0.05)
EOF

kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
echo "serve SIGKILLed"
# The orphaned worker exits on its own once its polls start failing.
wait "$worker_pid" 2>/dev/null || true
worker_pid=""

start_serve ""
echo "serve restarted on the same state dir (port $port)"

python3 - "$port" <<'EOF'
import json, sys, urllib.request
port = sys.argv[1]
with urllib.request.urlopen(f"http://127.0.0.1:{port}/stats") as r:
    stats = json.loads(r.read().decode())
assert stats["journal"]["recovered_jobs"] == 1, stats["journal"]
orch = stats["orchestrator"]
# The completed shard came back from the journal, not from re-execution.
assert orch["recovered_parts_total"] == 1, orch
assert orch["completed_shards_total"] == 0, orch
print("recovered:", json.dumps(orch))
EOF

"$build_dir/gga_worker" --connect "$port" --token hunter2 --name second \
  --poll-ms 50 --threads 4 --idle-exit-ms 20000 &
worker_pid=$!

python3 - "$port" "$work" "$job" <<'EOF'
import json, sys, time, urllib.request
port, work, job = sys.argv[1], sys.argv[2], sys.argv[3]
base = f"http://127.0.0.1:{port}"

def get(path):
    with urllib.request.urlopen(base + path) as r:
        return r.status, r.read().decode()

deadline = time.time() + 600
since = 0
while True:
    status, text = get(f"/v1/jobs/{job}?wait_ms=2000&since={since}")
    assert status == 200, (status, text)
    snap = json.loads(text)
    if snap["state"] in ("done", "failed", "canceled"):
        assert snap["state"] == "done", snap
        break
    since = snap["version"]
    assert time.time() < deadline, f"timed out waiting for {job}"

status, text = get("/stats")
assert status == 200, (status, text)
orch = json.loads(text)["orchestrator"]
# ZERO recovered shards re-executed: this process ran exactly one.
assert orch["completed_shards_total"] == 1, orch
assert orch["recovered_parts_total"] == 1, orch

status, text = get(f"/v1/jobs/{job}/render")
assert status == 200, (status, text)
with open(f"{work}/served.txt", "w") as f:
    f.write(text)
print("recovered job done; final orchestrator stats:", json.dumps(orch))
EOF

diff "$work/reference.txt" "$work/served.txt"
echo "post-crash render is byte-identical to the offline pipeline"

# The done job's file and part files are gone, and nothing else was
# written under the state dir.
shopt -s nullglob
leftovers=("$state"/jobs/* "$state"/parts/*)
state_entries=("$state"/*)
shopt -u nullglob
if (( ${#leftovers[@]} )) ||
   [[ "${state_entries[*]}" != "$state/jobs $state/parts" ]]; then
  echo "state dir not clean after the job finished:" \
    "${state_entries[*]} ${leftovers[*]}" >&2
  exit 1
fi
echo "the finished job left nothing under the state dir"

kill -TERM "$serve_pid"
wait "$serve_pid"
serve_pid=""
echo "serve crash smoke passed"
