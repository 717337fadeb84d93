#!/usr/bin/env bash
# obs-smoke: the observability layer, end to end. Trains a tiny model,
# boots 1 dssddi-router + 2 dssddi-serve backends with 100% trace
# sampling, JSON logging and pprof enabled, drives mixed load whose
# every response must echo X-Request-Id (loadgen -strict enforces the
# echo) and carry X-Epoch, then proves end-to-end trace correlation: a
# known request id is looked up in the router's /debug/tracez AND in
# the owning backend's, with stage spans that sum to the measured
# latency (obscheck asserts both). Finally both tiers' Prometheus
# expositions are round-tripped through the strict in-repo parser with
# histogram-consistency checks. Used by `make obs-smoke` and the CI
# "obs" job.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK=$(mktemp -d)
PIDS=()
cleanup() {
    for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK/dssddi" ./cmd/dssddi
go build -o "$WORK/dssddi-serve" ./cmd/dssddi-serve
go build -o "$WORK/dssddi-router" ./cmd/dssddi-router
go build -o "$WORK/loadgen" ./cmd/loadgen
go build -o "$WORK/obscheck" ./cmd/obscheck

echo "== train a tiny model"
"$WORK/dssddi" train -patients 70 -ddi-epochs 5 -md-epochs 10 -o "$WORK/model.snap"

wait_file() {
    for _ in $(seq 1 100); do
        [ -s "$1" ] && return 0
        sleep 0.1
    done
    echo "timed out waiting for $1" >&2
    return 1
}

echo "== boot 2 traced backends + the router (sampling 100%, JSON logs, pprof)"
for i in 0 1; do
    "$WORK/dssddi-serve" -m "$WORK/model.snap" -addr 127.0.0.1:0 -addr-file "$WORK/b$i.txt" \
        -trace-sample 1 -trace-ring 256 -slow-ms 250 -pprof \
        -log-format json -log-level info 2>"$WORK/b$i.log" &
    PIDS+=($!)
done
wait_file "$WORK/b0.txt"
wait_file "$WORK/b1.txt"
B0=$(cat "$WORK/b0.txt")
B1=$(cat "$WORK/b1.txt")
"$WORK/dssddi-router" -backends "$B0,$B1" -probe-interval 250ms \
    -addr 127.0.0.1:0 -addr-file "$WORK/router.txt" \
    -trace-sample 1 -trace-ring 256 -slow-ms 250 -pprof \
    -log-format json -log-level info 2>"$WORK/router.log" &
PIDS+=($!)
wait_file "$WORK/router.txt"
ROUTER=$(cat "$WORK/router.txt")
echo "   router on $ROUTER over $B0 $B1"

echo "== router reports a fully healthy fleet"
ok=""
for _ in $(seq 1 50); do
    if curl -sf "http://$ROUTER/healthz" | grep -q '"healthy_backends":2'; then ok=1; break; fi
    sleep 0.1
done
[ -n "$ok" ] || { echo "router never saw 2 healthy backends"; curl -s "http://$ROUTER/healthz"; exit 1; }

echo "== boot logs carry the structured build identity"
grep -q '"msg":"boot"' "$WORK/router.log" || { echo "router boot log missing"; cat "$WORK/router.log"; exit 1; }
grep -q '"build":{"commit"' "$WORK/router.log" || { echo "router boot log missing build info"; cat "$WORK/router.log"; exit 1; }
curl -sf "http://$ROUTER/healthz" | grep -q '"build":{"commit"' || { echo "router healthz missing build info"; exit 1; }
curl -sf "http://$B0/healthz" | grep -q '"build":{"commit"' || { echo "backend healthz missing build info"; exit 1; }

echo "== pprof answers on both tiers (flag-gated)"
curl -sf "http://$ROUTER/debug/pprof/cmdline" >/dev/null
curl -sf "http://$B0/debug/pprof/cmdline" >/dev/null

echo "== mixed load: every response must echo X-Request-Id (loadgen -strict) and carry X-Epoch"
"$WORK/loadgen" -addr "$ROUTER" -cluster -mix -strict -duration 3s -concurrency 8
for i in $(seq 1 10); do
    headers=$(curl -sf -o /dev/null -w '%{header_json}' -X POST "http://$ROUTER/v1/suggest" -d "{\"patient\": $i, \"k\": 2}")
    echo "$headers" | grep -q '"x-request-id"' || { echo "response $i missing X-Request-Id"; echo "$headers"; exit 1; }
    echo "$headers" | grep -q '"x-epoch"' || { echo "response $i missing X-Epoch"; echo "$headers"; exit 1; }
done

echo "== end-to-end trace correlation: one known request, both tiers"
RID="obs-smoke-$$"
headers=$(curl -sf -o /dev/null -w '%{header_json}' -X POST "http://$ROUTER/v1/suggest" \
    -H "X-Request-Id: $RID" -H "Cache-Control: no-cache" -d '{"patient": 33, "k": 4}')
echo "$headers" | grep -q "\"x-request-id\":\[\"$RID\"\]" || { echo "router did not echo $RID"; echo "$headers"; exit 1; }
OWNER=$(echo "$headers" | tr -d '\n ' | sed 's/.*"x-backend":\["\([^"]*\)"\].*/\1/')
[ -n "$OWNER" ] || { echo "no X-Backend on the traced response"; exit 1; }
echo "   request $RID served by $OWNER"
"$WORK/obscheck" trace "http://$ROUTER/debug/tracez" -id "$RID" -spans proxy -cover 0.5
"$WORK/obscheck" trace "http://$OWNER/debug/tracez" -id "$RID" -spans queue,score,encode -cover 0.25

echo "== Prometheus expositions round-trip through the strict parser"
"$WORK/obscheck" prom "http://$ROUTER/metricsz?format=prometheus" \
    -require dssddi_router_build_info,dssddi_router_requests_total,dssddi_router_backend_duration_seconds,dssddi_router_fleet_duration_seconds,dssddi_router_replica_reads_total,dssddi_router_replication_lag_seconds,dssddi_router_anti_entropy_syncs_total
"$WORK/obscheck" prom "http://$B0/metricsz?format=prometheus" \
    -require dssddi_build_info,dssddi_requests_total,dssddi_request_duration_seconds,dssddi_cache_hits_total,dssddi_replica_applies_total,dssddi_replication_apply_duration_seconds
"$WORK/obscheck" prom "http://$B1/metricsz?format=prometheus" \
    -require dssddi_build_info,dssddi_request_duration_seconds,dssddi_replica_applies_total

echo "== structured log stream is well-formed JSON events"
# Non-JSON stderr banners aside, every slog line must carry the
# standard fields.
jsonlines=$(grep -c '^{' "$WORK/router.log" || true)
[ "$jsonlines" -ge 1 ] || { echo "router produced no JSON log events"; cat "$WORK/router.log"; exit 1; }
grep '^{' "$WORK/router.log" | while IFS= read -r line; do
    echo "$line" | grep -q '"time":' || { echo "log line missing time: $line"; exit 1; }
    echo "$line" | grep -q '"level":' || { echo "log line missing level: $line"; exit 1; }
    echo "$line" | grep -q '"msg":' || { echo "log line missing msg: $line"; exit 1; }
done

echo "== tracez text view renders on both tiers"
# Capture, then grep a here-string: grep -q quits on the first match,
# and anything still writing into a pipe to it (curl, or echo on a
# large page) dies of SIGPIPE and fails the check under pipefail.
page=$(curl -sf "http://$ROUTER/debug/tracez")
grep -q 'dssddi-router /debug/tracez' <<<"$page" || { echo "router tracez text view broken"; exit 1; }
page=$(curl -sf "http://$B0/debug/tracez")
grep -q 'dssddi-serve /debug/tracez' <<<"$page" || { echo "backend tracez text view broken"; exit 1; }

echo "== OK: obs smoke passed"
