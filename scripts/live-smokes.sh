#!/usr/bin/env bash
# Live-frontend smokes: boot real cluster-sim frontends on loopback ports
# 8070, 8075 and 8090-8092 and check the surface from outside, as an
# operator would see it. Three checks, in order:
#
#   metrics     one frontend with relays: a discovery storm through the v1
#               control plane, then /metrics parsed strictly with the core
#               families required and the integrate call in /v1/audit;
#   federation  a parent and two children: the parent's merged /v1/nodes,
#               /v1/events and /metrics carry both shards, and a cascading
#               remirror succeeds;
#   facts-drift a frontend whose first two facts reports are skewed: the
#               drift is detected, the supervisor reinstalls it away, and
#               the rocks_facts_* families are live.
#
# Run: bash scripts/live-smokes.sh (the binaries go to bin/, ignored by git).
# Exits non-zero on the first failed check; every frontend it started is
# killed on the way out.
set -e
cd "$(dirname "$0")/.."
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

mkdir -p bin
go build -o bin ./cmd/...

echo '== metrics smoke (live frontend)'
bin/cluster-sim -listen 127.0.0.1:8070 -nodes 2 -relays &
SIM=$!
for i in $(seq 1 100); do
  curl -sf http://127.0.0.1:8070/v1/health >/dev/null && break
  sleep 0.2
done
bin/insert-ethers -server http://127.0.0.1:8070 -count 4 -rack 1
bin/cluster-health -server http://127.0.0.1:8070 -metrics -quiet \
  -require rocks_nodes,rocks_nodes_state,rocks_api_requests_total,rocks_audit_entries_total,rocks_lifecycle_events_total,rocks_installer_installs_total,rocks_installer_fetch_seconds,rocks_db_index_keys,rocks_db_wal_enabled,rocks_dist_package_requests_total,rocks_dist_bundle_requests_total,rocks_dist_relays,rocks_dist_relay_package_bytes_total,rocks_dist_relay_same_rack_total,rocks_dist_relay_cross_rack_total,rocks_kickstart_cache_hits_total,rocks_kickstart_cgi_seconds,rocks_supervisor_running,rocks_federation_children
curl -s 'http://127.0.0.1:8070/v1/audit?op=integrate' | grep -q '"outcome":"ok"' \
  || { echo 'integrate missing from /v1/audit' >&2; exit 1; }
kill $SIM

echo '== federation smoke (two-level hierarchy, live frontends)'
bin/cluster-sim -listen 127.0.0.1:8090 -nodes 0 &
PARENT=$!
for i in $(seq 1 100); do
  curl -sf http://127.0.0.1:8090/v1/health >/dev/null && break
  sleep 0.2
done
bin/cluster-sim -listen 127.0.0.1:8091 -parent http://127.0.0.1:8090 -shard deptA:0-3 -nodes 0 &
CHILD_A=$!
bin/cluster-sim -listen 127.0.0.1:8092 -parent http://127.0.0.1:8090 -shard deptB:4-7 -nodes 0 &
CHILD_B=$!
for port in 8091 8092; do
  for i in $(seq 1 100); do
    curl -sf http://127.0.0.1:$port/v1/health >/dev/null && break
    sleep 0.2
  done
done
bin/insert-ethers -server http://127.0.0.1:8091 -count 2 -rack 0
bin/insert-ethers -server http://127.0.0.1:8092 -count 2 -rack 4
NODES=$(curl -s 'http://127.0.0.1:8090/v1/nodes')
echo "$NODES" | grep -q 'compute-0-' || { echo 'parent merged /v1/nodes missing deptA nodes' >&2; exit 1; }
echo "$NODES" | grep -q 'compute-4-' || { echo 'parent merged /v1/nodes missing deptB nodes' >&2; exit 1; }
echo "$NODES" | grep -q '"partial":true' && { echo 'parent flagged partial with both children up' >&2; exit 1; }
EVENTS=$(curl -s 'http://127.0.0.1:8090/v1/events')
echo "$EVENTS" | grep -q '"shard":"deptA"' || { echo 'merged /v1/events missing deptA provenance' >&2; exit 1; }
echo "$EVENTS" | grep -q '"shard":"deptB"' || { echo 'merged /v1/events missing deptB provenance' >&2; exit 1; }
bin/cluster-health -server http://127.0.0.1:8090 -metrics -quiet \
  -require rocks_federation_children,rocks_federation_registrations_total,rocks_federation_events_received_total,rocks_federation_child_up,rocks_federation_merge_deduped_total,rocks_nodes
curl -s http://127.0.0.1:8090/metrics | grep -q 'shard="deptA"' \
  || { echo 'aggregated /metrics missing per-shard labels' >&2; exit 1; }
curl -sf -X POST 'http://127.0.0.1:8090/v1/federation/remirror' >/dev/null \
  || { echo 'cascading remirror failed' >&2; exit 1; }
kill $CHILD_A $CHILD_B $PARENT

echo '== facts drift smoke (live frontend, injected drift)'
bin/cluster-sim -listen 127.0.0.1:8075 -nodes 2 -drift 2 &
SIM=$!
for i in $(seq 1 100); do
  curl -sf http://127.0.0.1:8075/v1/health >/dev/null && break
  sleep 0.2
done
for i in $(seq 1 100); do
  curl -s 'http://127.0.0.1:8075/v1/facts' | grep -q '"mac"' && break
  sleep 0.2
done
curl -s 'http://127.0.0.1:8075/v1/events' | grep -q '"type":"drift-detected"' \
  || { echo 'no drift-detected events despite injected skew' >&2; exit 1; }
FACTS=''
for i in $(seq 1 150); do
  FACTS=$(curl -s 'http://127.0.0.1:8075/v1/facts')
  echo "$FACTS" | grep -q '"actionable":true' || break
  sleep 0.2
done
echo "$FACTS" | grep -q '"actionable":true' \
  && { echo 'actionable drift never remediated' >&2; exit 1; }
curl -s 'http://127.0.0.1:8075/v1/events' | grep -q '"type":"drift-reinstall"' \
  || { echo 'supervisor never ordered a drift reinstall' >&2; exit 1; }
bin/cluster-health -server http://127.0.0.1:8075 -metrics -quiet \
  -require rocks_facts_reports_total,rocks_facts_drift_total,rocks_facts_reinstalls_total,rocks_federation_child_last_scrape_seconds
kill $SIM

echo 'live smokes: ok'
