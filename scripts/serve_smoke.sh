#!/usr/bin/env bash
# End-to-end smoke of the resident service: start gga_serve, run the
# Figure 5 manifest as a remote job over HTTP with two workers — the
# first dies holding its lease to exercise expiry and retry — and
# byte-diff the served render against the offline gga_worker + gga_merge
# pipeline. Also submits a local single-plan job and checks /stats
# telemetry is live, then sends a burst of 40,000 one-shot requests and
# requires the server to stay up with flat memory.
#
# Usage: scripts/serve_smoke.sh [scale]
#   scale   manifest scale (default 0.05)
#   BUILD_DIR=... to reuse/redirect the build tree (default: build).
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
scale=${1:-0.05}
build_dir=${BUILD_DIR:-"$repo_root/build"}
work=$(mktemp -d)

cleanup() {
  # The smoke leaves nothing running: kill the service and any workers.
  for pid in "${serve_pid:-}" "${worker_pid:-}" "${crashy_pid:-}"; do
    if [[ -n "$pid" ]]; then
      kill "$pid" 2>/dev/null || true
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

# --- resident service ----------------------------------------------------

# An 8 s lease: long enough that a slow CI machine's healthy shard run
# does not burn attempts, short enough that the killed worker's orphaned
# shard is reassigned quickly.
"$build_dir/gga_serve" --port 0 --port-file "$work/port" \
  --threads 2 --lease-ms 8000 --retry-base-ms 100 --retry-cap-ms 500 \
  --max-attempts 10 --tick-ms 50 &
serve_pid=$!
for _ in $(seq 100); do
  [[ -s "$work/port" ]] && break
  sleep 0.1
done
port=$(cat "$work/port")
echo "serve up on port $port"

# The first worker connects alone, so it is guaranteed to win the first
# shard assignment — on which it dies (exit 17), leaving an expired
# lease for the orchestrator to notice and reassign.
"$build_dir/gga_worker" --connect "$port" --name crashy --poll-ms 50 \
  --exit-after-assignments 1 &
crashy_pid=$!

# Submit the remote job (2 shards) and a local single-plan job.
python3 - "$port" "$work" <<'EOF'
import json, sys, urllib.request

port, work = sys.argv[1], sys.argv[2]
base = f"http://127.0.0.1:{port}"

def post(path, body):
    req = urllib.request.Request(base + path, data=json.dumps(body).encode(),
                                 method="POST")
    with urllib.request.urlopen(req) as r:
        return r.status, r.read().decode()

with open(f"{work}/fig5.json") as f:
    manifest = json.load(f)

status, text = post("/v1/jobs", {"manifest": manifest,
                                 "execution": "remote", "shards": 2,
                                 "tenant": "smoke"})
assert status == 202, (status, text)
remote = json.loads(text)["id"]
print(f"remote job {remote} admitted")

status, text = post("/v1/jobs", {"plan": manifest["units"][0],
                                 "tenant": "smoke"})
assert status == 202, (status, text)
local = json.loads(text)["id"]

with open(f"{work}/jobs", "w") as f:
    f.write(f"{remote} {local}\n")
EOF

# The crash hook must actually fire (exit code 17) once the job exists.
set +e
wait "$crashy_pid"
crashy_status=$?
set -e
crashy_pid=""
if [[ "$crashy_status" -ne 17 ]]; then
  echo "crashy worker exited with $crashy_status, expected 17" >&2
  exit 1
fi
echo "crashy worker died on schedule (exit 17)"

# The second worker runs the other shard at once and the orphaned shard
# after its lease expires; its idle window must outlast that lease.
"$build_dir/gga_worker" --connect "$port" --name steady --poll-ms 50 \
  --threads 4 --idle-exit-ms 20000 &
worker_pid=$!

# --- drive the jobs to completion over HTTP ------------------------------

python3 - "$port" "$work" <<'EOF'
import json, sys, time, urllib.request

port, work = sys.argv[1], sys.argv[2]
base = f"http://127.0.0.1:{port}"

def get(path):
    with urllib.request.urlopen(base + path) as r:
        return r.status, r.read().decode()

with open(f"{work}/jobs") as f:
    remote, local = f.read().split()

deadline = time.time() + 600
for jid in (remote, local):
    since = 0
    while True:
        status, text = get(f"/v1/jobs/{jid}?wait_ms=2000&since={since}")
        assert status == 200, (status, text)
        snap = json.loads(text)
        if snap["state"] in ("done", "failed", "canceled"):
            assert snap["state"] == "done", snap
            break
        since = snap["version"]
        assert time.time() < deadline, f"timed out waiting for {jid}"
print("both jobs done")

status, text = get(f"/v1/jobs/{remote}/render")
assert status == 200, (status, text)
with open(f"{work}/served.txt", "w") as f:
    f.write(text)

status, text = get("/stats")
assert status == 200, (status, text)
stats = json.loads(text)
assert stats["jobs"]["done"] == 2, stats["jobs"]
assert stats["executor"]["completed_total"] >= 1, stats["executor"]
assert stats["graph_store"]["misses"] >= 1, stats["graph_store"]
assert stats["orchestrator"]["completed_shards_total"] == 2, \
    stats["orchestrator"]
# The killed worker's lease must have expired and been retried.
assert stats["orchestrator"]["expired_leases_total"] >= 1, \
    stats["orchestrator"]
assert stats["orchestrator"]["retries_total"] >= 1, stats["orchestrator"]
assert stats["unit_latency_ms_by_app"], "no latency histograms"
print("orchestrator stats:", json.dumps(stats["orchestrator"]))
EOF

# --- byte-identity of the served render ----------------------------------

diff "$work/reference.txt" "$work/served.txt"
echo "served remote-job render is byte-identical to the offline pipeline"

# --- connection reaping under a one-shot burst ---------------------------

# Every request below opens and closes its own connection, as every
# in-repo client does, and each connection gets its own server thread.
# A thread left unjoined keeps its 8 MiB stack mapped, so 40,000 of them
# would grow VmSize by hundreds of GiB or exhaust the process's memory
# maps long before the end. The worker goes first so that the burst and
# the final /stats are the only traffic.
kill "$worker_pid" 2>/dev/null || true
wait "$worker_pid" 2>/dev/null || true
worker_pid=""

python3 - "$port" "$serve_pid" <<'EOF'
import json, socket, sys, time, urllib.request

port, pid = int(sys.argv[1]), sys.argv[2]
base = f"http://127.0.0.1:{port}"
requests = 40000

def vmsize_kib():
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmSize:"):
                return int(line.split()[1])
    raise SystemExit("gga_serve has no VmSize: is it still running?")

one_shot = (b"GET /v1/jobs/job-0 HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Connection: close\r\n\r\n")
before = vmsize_kib()
start = time.time()
for i in range(requests):
    with socket.create_connection(("127.0.0.1", port)) as s:
        s.sendall(one_shot)
        reply = b""
        while chunk := s.recv(4096):
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 404 "), (i, reply[:80])
elapsed = time.time() - start
grown_mib = (vmsize_kib() - before) / 1024
print(f"{requests} one-shot requests in {elapsed:.1f} s; "
      f"VmSize grew {grown_mib:.1f} MiB")

with urllib.request.urlopen(base + "/healthz") as r:
    assert r.status == 200, r.status
with urllib.request.urlopen(base + "/stats") as r:
    http = json.loads(r.read().decode())["http"]
print("http stats:", json.dumps(http))
assert grown_mib < 1024, f"VmSize grew {grown_mib:.1f} MiB"
# The /stats request itself is the only connection left.
assert http["connections_live"] == 1, http
assert http["connections_accepted_total"] >= requests, http
EOF

kill -TERM "$serve_pid"
wait "$serve_pid"
serve_pid=""
echo "serve smoke passed"
