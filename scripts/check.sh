#!/usr/bin/env bash
# The full local gate: everything CI runs, in the order that fails fastest.
# Usage: scripts/check.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(dirname "$0")/.."

# Address polls for the smokes: each server prints its bound addresses
# once it listens; poll its log for up to 10 s.
wait_addr() { # logfile → the "listening on" address, or empty on timeout
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(awk '/^listening on /{print $3; exit}' "$1")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  echo "$addr"
}
wait_obs() { # logfile → the "obs listening on" address, or empty on timeout
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(awk '/^obs listening on /{print $4; exit}' "$1")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  echo "$addr"
}

echo "== cargo fmt --check =="
cargo fmt --check

# --all-features: `debug-stats` gates the counting allocator, the only
# `unsafe impl`; without it clippy never sees that code. The workspace
# `[lints]` table (`unsafe_code`, documented `unsafe`, `#[expect]` only,
# never `#[allow]`), the hot-path files' panic-freedom headers,
# `exhaustive_enums` in net and durability, and the per-crate clippy.toml
# bans all ride on this step: wall-clock reads (core, durability, net,
# cluster), unbounded channels and undeclared `Mutex::lock` (core, net,
# cluster), and `Mutex`/`RwLock` on obs's record path (obs).
echo "== cargo clippy (deny warnings, all features) =="
cargo clippy --workspace --all-targets --all-features -- -D warnings

# adbench is its own Cargo workspace outside the `[lints]` table; check
# its `unsafe` the same way without gating on its other warnings.
echo "== cargo clippy (adbench: documented unsafe) =="
cargo clippy -q --manifest-path adbench/Cargo.toml --all-targets -- -A warnings \
  -D clippy::undocumented_unsafe_blocks

# --workspace: the smokes below run binaries of other packages
# (e15_ad_scaling, e16_sim_day, e17_cluster), which a root-package build
# never produces.
echo "== cargo build --release (workspace) =="
cargo build --release --workspace

echo "== cargo test (workspace) =="
cargo test -q --workspace

echo "== cargo test (debug-stats: zero-alloc hot path) =="
cargo test -q -p adcast-core --features debug-stats

# The benchmark is its own Cargo workspace on top of the crates' public
# APIs: building it and running its self-tests here means an API change
# that would break it fails this gate, not the next benchmark run.
echo "== benchmark build + self-tests (adbench) =="
cargo test -q --release --manifest-path adbench/Cargo.toml

echo "== serving-layer loopback smoke (adcast-serve + adcast-loadgen + /metrics) =="
serve_log=$(mktemp)
./target/release/adcast-serve --users 400 --shards 2 --obs-addr 127.0.0.1:0 \
  >"$serve_log" 2>&1 &
serve_pid=$!
addr=$(wait_addr "$serve_log")
if [ -z "$addr" ]; then
  echo "adcast-serve never reported its address:" >&2
  cat "$serve_log" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
obs_addr=$(wait_obs "$serve_log")
if [ -z "$obs_addr" ]; then
  echo "adcast-serve never reported its obs address:" >&2
  cat "$serve_log" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
# --obs-addr makes the loadgen scrape /metrics + /healthz at end of run and
# hard-fail on malformed exposition or an unhealthy server.
loadgen_out=$(./target/release/adcast-loadgen --addr "$addr" --smoke --conns 2 \
  --obs-addr "$obs_addr")
echo "$loadgen_out"
# --smoke sends Shutdown at the end; the server must exit cleanly on it.
wait "$serve_pid"
grep -q 'responses=[1-9]' <<<"$loadgen_out" || {
  echo "loadgen smoke returned zero responses" >&2
  exit 1
}
grep -q 'obs: families=' <<<"$loadgen_out" || {
  echo "loadgen smoke never scraped /metrics" >&2
  exit 1
}
rm -f "$serve_log"

echo "== crash-recovery smoke (kill -9 mid-load, restart, verify recovered state) =="
data_dir=$(mktemp -d)
serve_log=$(mktemp)
./target/release/adcast-serve --users 400 --shards 2 --data-dir "$data_dir" \
  --fsync always --snapshot-every 1000 >"$serve_log" 2>&1 &
serve_pid=$!
addr=$(wait_addr "$serve_log")
if [ -z "$addr" ]; then
  echo "durable adcast-serve never reported its address:" >&2
  cat "$serve_log" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
# Drive load in the background (enough messages to still be mid-flight),
# then kill -9 the server under it — acked writes must survive.
./target/release/adcast-loadgen --addr "$addr" --smoke --messages 8000 \
  --no-shutdown >/dev/null 2>&1 &
loadgen_pid=$!
sleep 1.5
kill -9 "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
# The loadgen will spin on reconnect against the dead port; its fate is
# not the check — the recovered server's counters are.
kill -9 "$loadgen_pid" 2>/dev/null || true
wait "$loadgen_pid" 2>/dev/null || true
# A snapshot is renamed into place only once it is complete and fsynced,
# so one on disk now must be what the restart loads. The replay check
# below alone would pass a loader that skipped it, whenever the WAL that
# covers it survives. The smoke workload logs ~1 090 records, so the
# 1000-record cadence cuts one snapshot once the load has run through.
had_snapshot=0
if compgen -G "$data_dir/snap-*.snap" >/dev/null; then
  had_snapshot=1
fi
# Restart from the same data directory (fresh ephemeral port) and verify
# the pre-crash state came back: recovered_records counts the WAL tail
# replayed on top of the last periodic snapshot.
./target/release/adcast-serve --users 400 --shards 2 --data-dir "$data_dir" \
  --fsync always --snapshot-every 1000 >"$serve_log" 2>&1 &
serve_pid=$!
addr=$(wait_addr "$serve_log")
if [ -z "$addr" ]; then
  echo "restarted adcast-serve never reported its address:" >&2
  cat "$serve_log" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
loadgen_out=$(./target/release/adcast-loadgen --addr "$addr" --smoke --conns 2)
echo "$loadgen_out"
wait "$serve_pid"
grep -q 'responses=[1-9]' <<<"$loadgen_out" || {
  echo "post-recovery loadgen returned zero responses" >&2
  exit 1
}
grep -q 'recovered_records=[1-9]' <<<"$loadgen_out" || {
  echo "restarted server reports no recovered WAL records — recovery did not happen" >&2
  cat "$serve_log" >&2
  exit 1
}
if [ "$had_snapshot" = 1 ]; then
  if ! grep -q '^recovered from snapshot at lsn .* 0 corrupt snapshot(s) skipped' "$serve_log"; then
    echo "a complete snapshot was on disk, but the restart did not load it cleanly:" >&2
    cat "$serve_log" >&2
    exit 1
  fi
fi
# Graceful shutdown dumps the flight recorder next to the WAL; after a crash
# plus a recovered run it must exist and be non-empty.
if ! [ -s "$data_dir/flightrec.jsonl" ]; then
  echo "no flight-recorder dump at $data_dir/flightrec.jsonl after recovery" >&2
  ls -la "$data_dir" >&2 || true
  exit 1
fi
rm -rf "$data_dir"
rm -f "$serve_log"

echo "== E15 index-scaling smoke (pruned vs exhaustive, tiny sweep) =="
e15_out=$(ADCAST_E15_SMOKE=1 ./target/release/e15_ad_scaling)
echo "$e15_out"
grep -q 'smoke run' <<<"$e15_out" || {
  echo "E15 smoke did not run in smoke mode" >&2
  exit 1
}

echo "== E16 sim determinism smoke (seeded scenario twice, byte-identical) =="
e16_out=$(ADCAST_E16_SMOKE=1 ./target/release/e16_sim_day)
echo "$e16_out"
grep -q 'smoke run' <<<"$e16_out" || {
  echo "E16 smoke did not run in smoke mode" >&2
  exit 1
}
grep -q 'twin=ok' <<<"$e16_out" || {
  echo "E16 smoke crash recovery did not twin-check" >&2
  exit 1
}

echo "== cluster smoke (2 partitions + followers, router, kill -9 a primary mid-load) =="
cluster_dir=$(mktemp -d)
http_fetch() { # host:port path → status line + headers + body, via /dev/tcp
  local hp=$1 path=$2
  exec 3<>"/dev/tcp/${hp%:*}/${hp##*:}"
  printf 'GET %s HTTP/1.1\r\nHost: adcast\r\nConnection: close\r\n\r\n' "$path" >&3
  cat <&3
  exec 3<&- 3>&-
}
# Four nodes — a replicated pair per partition, followers first so the
# primaries can ship to them from the first ack. Every node gets an obs
# port so the router can federate them.
./target/release/adcast-serve --users 400 --shards 2 --fsync always \
  --data-dir "$cluster_dir/p0f" --partition 0 --role follower \
  --obs-addr 127.0.0.1:0 >"$cluster_dir/p0f.log" 2>&1 &
p0f_pid=$!
./target/release/adcast-serve --users 400 --shards 2 --fsync always \
  --data-dir "$cluster_dir/p1f" --partition 1 --role follower \
  --obs-addr 127.0.0.1:0 >"$cluster_dir/p1f.log" 2>&1 &
p1f_pid=$!
p0f_addr=$(wait_addr "$cluster_dir/p0f.log")
p1f_addr=$(wait_addr "$cluster_dir/p1f.log")
p0f_obs=$(wait_obs "$cluster_dir/p0f.log")
p1f_obs=$(wait_obs "$cluster_dir/p1f.log")
if [ -z "$p0f_addr" ] || [ -z "$p1f_addr" ] || [ -z "$p0f_obs" ] || [ -z "$p1f_obs" ]; then
  echo "cluster followers never reported their addresses" >&2
  cat "$cluster_dir"/p0f.log "$cluster_dir"/p1f.log >&2
  exit 1
fi
./target/release/adcast-serve --users 400 --shards 2 --fsync always \
  --data-dir "$cluster_dir/p0" --partition 0 --role primary --follower "$p0f_addr" \
  --obs-addr 127.0.0.1:0 >"$cluster_dir/p0.log" 2>&1 &
p0_pid=$!
./target/release/adcast-serve --users 400 --shards 2 --fsync always \
  --data-dir "$cluster_dir/p1" --partition 1 --role primary --follower "$p1f_addr" \
  --obs-addr 127.0.0.1:0 >"$cluster_dir/p1.log" 2>&1 &
p1_pid=$!
p0_addr=$(wait_addr "$cluster_dir/p0.log")
p1_addr=$(wait_addr "$cluster_dir/p1.log")
p0_obs=$(wait_obs "$cluster_dir/p0.log")
p1_obs=$(wait_obs "$cluster_dir/p1.log")
if [ -z "$p0_addr" ] || [ -z "$p1_addr" ] || [ -z "$p0_obs" ] || [ -z "$p1_obs" ]; then
  echo "cluster primaries never reported their addresses" >&2
  cat "$cluster_dir"/p0.log "$cluster_dir"/p1.log >&2
  exit 1
fi
# The router federates every member's obs endpoint and head-samples
# every 8th client RPC into the distributed trace ring.
./target/release/adcast-router --addr 127.0.0.1:0 --obs-addr 127.0.0.1:0 \
  --partition "$p0_addr,$p0f_addr" --partition-obs "$p0_obs,$p0f_obs" \
  --partition "$p1_addr,$p1f_addr" --partition-obs "$p1_obs,$p1f_obs" \
  --trace-sample 8 >"$cluster_dir/router.log" 2>&1 &
router_pid=$!
router_addr=$(wait_addr "$cluster_dir/router.log")
router_obs=$(wait_obs "$cluster_dir/router.log")
if [ -z "$router_addr" ] || [ -z "$router_obs" ]; then
  echo "adcast-router never reported its addresses" >&2
  cat "$cluster_dir/router.log" >&2
  exit 1
fi
# Phase 1 — consistency: the routed cluster must serve bit-identically
# to an in-process single-node twin (routing, broadcast order,
# replication all on the line). Every delta fed here is acked. The
# loadgen also scrapes the router's federated obs port and fetches the
# stitched traces the run sampled — hard-failing if there are none.
twin_out=$(./target/release/adcast-loadgen --addr "$router_addr" --smoke \
  --twin-check --no-shutdown --obs-addr "$router_obs" --trace-sample 8 2>&1)
echo "$twin_out"
grep -q 'bit-identical' <<<"$twin_out" || {
  echo "cluster twin check did not pass" >&2
  exit 1
}
twin_deltas=$(sed -n 's/.*twin fed: [0-9]* campaigns, \([0-9]*\) deltas.*/\1/p' <<<"$twin_out")
# The best stitched trace must span the whole ladder: at least 6 spans
# across at least 3 distinct processes (router, primary, follower).
trace_line=$(grep '^trace: traces=' <<<"$twin_out" || true)
best_spans=$(sed -n 's/.*best_spans=\([0-9]*\).*/\1/p' <<<"$trace_line")
best_nodes=$(sed -n 's/.*best_nodes=\([0-9]*\).*/\1/p' <<<"$trace_line")
if [ -z "$best_spans" ] || [ "$best_spans" -lt 6 ] || [ -z "$best_nodes" ] || [ "$best_nodes" -lt 3 ]; then
  echo "stitched trace too small (line: ${trace_line:-missing}); want >=6 spans over >=3 nodes" >&2
  exit 1
fi
# The federated exposition must carry every node's families, labeled
# with node/partition/role, and report all four members up.
metrics=$(http_fetch "$router_obs" /metrics)
for want in 'partition="0"' 'partition="1"' "node=\"$p0_obs\"" "node=\"$p0f_obs\"" \
  "node=\"$p1_obs\"" "node=\"$p1f_obs\"" 'role="primary"' 'role="follower"'; do
  grep -qF "$want" <<<"$metrics" || {
    echo "federated /metrics is missing $want" >&2
    exit 1
  }
done
if grep -q 'adcast_federation_member_up{.*} 0' <<<"$metrics"; then
  echo "federated /metrics reports a member down while all four are alive" >&2
  exit 1
fi
# Healthy fleet: the router's aggregated readiness says ready.
readyz=$(http_fetch "$router_obs" /readyz)
grep -q '200' <<<"$readyz" || {
  echo "router /readyz not ready on a healthy fleet: $readyz" >&2
  exit 1
}
# Phase 2 — failover: kill -9 the partition-0 primary under live load.
# The router must promote the follower and finish the run.
./target/release/adcast-loadgen --addr "$router_addr" --smoke --messages 6000 \
  >"$cluster_dir/loadgen2.log" 2>&1 &
loadgen_pid=$!
sleep 1.0
kill -9 "$p0_pid" 2>/dev/null || true
wait "$p0_pid" 2>/dev/null || true
# With the partition-0 primary dead, its obs endpoint is unreachable —
# the router's aggregated /readyz must flip unready immediately.
readyz=$(http_fetch "$router_obs" /readyz)
grep -q '503' <<<"$readyz" || {
  echo "router /readyz stayed ready with a dead member: $readyz" >&2
  exit 1
}
if ! wait "$loadgen_pid"; then
  echo "loadgen did not survive the primary kill" >&2
  cat "$cluster_dir/loadgen2.log" "$cluster_dir/router.log" >&2
  exit 1
fi
lg2=$(cat "$cluster_dir/loadgen2.log")
echo "$lg2"
grep -q 'responses=[1-9]' <<<"$lg2" || {
  echo "post-kill loadgen returned zero responses" >&2
  exit 1
}
grep -q 'router: promoted partition=0 epoch=1' "$cluster_dir/router.log" || {
  echo "router never promoted the partition-0 follower" >&2
  cat "$cluster_dir/router.log" >&2
  exit 1
}
# Zero acked-delta loss: the merged post-failover stats must hold every
# delta acked across both runs (retries can only inflate the count).
accepted2=$(sed -n 's/.*accepted=\([0-9]*\).*/\1/p' <<<"$lg2")
server_deltas=$(sed -n 's/^server: deltas=\([0-9]*\).*/\1/p' <<<"$lg2")
if [ -z "$twin_deltas" ] || [ -z "$accepted2" ] || [ -z "$server_deltas" ]; then
  echo "could not parse delta accounting (twin=$twin_deltas accepted=$accepted2 server=$server_deltas)" >&2
  exit 1
fi
if [ "$server_deltas" -lt $((twin_deltas + accepted2)) ]; then
  echo "acked-delta loss after failover: server holds $server_deltas < $twin_deltas + $accepted2" >&2
  exit 1
fi
# Clean drain: phase 2's Shutdown stops the promoted node, the healthy
# primary, and the router; the surviving follower is ours to stop.
wait "$router_pid" "$p0f_pid" "$p1_pid"
kill "$p1f_pid" 2>/dev/null || true
wait "$p1f_pid" 2>/dev/null || true
rm -rf "$cluster_dir"

echo "== E17 cluster-scaling smoke (router fan-out, balanced partition split) =="
e17_out=$(ADCAST_E17_SMOKE=1 ./target/release/e17_cluster)
echo "$e17_out"
grep -q 'smoke run' <<<"$e17_out" || {
  echo "E17 smoke did not run in smoke mode" >&2
  exit 1
}

echo "hint: scripts/sanitize.sh runs Miri/TSan/ASan over the pool, zero-alloc, cluster and replication tests when a nightly toolchain is present (skips cleanly otherwise)"
echo "All checks passed."
