#!/usr/bin/env bash
# End-to-end smoke of the live write path (the "mutate-smoke" CI gate):
# starts orx_serve with --mutate on an ephemeral port, drives a mixed
# 50/50 read/write load, then checks the accounting: zero dropped
# (unanswered) frames, at least MIN_PUBLICATIONS snapshot publications
# (the builder actually consumed the log and hot-swapped), no read-p99
# cliff across publication windows, and a clean SIGTERM drain that
# flushes every acknowledged batch into a published snapshot.
#
# usage: tools/mutate_smoke.sh [build-dir] [load-seconds] [connections]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
LOAD_SECONDS="${2:-10}"
CONNECTIONS="${3:-64}"
SCALE="${ORX_MUTATE_SMOKE_SCALE:-0.05}"
MIN_PUBLICATIONS="${ORX_MUTATE_SMOKE_MIN_PUBLICATIONS:-20}"
# A publication stall would park read latencies for a full swap; allow
# windows to vary but not by more than this factor.
MAX_P99_CLIFF="${ORX_MUTATE_SMOKE_MAX_P99_CLIFF:-10}"
SERVE_LOG="$(mktemp)"
BENCH_JSON="${ORX_MUTATE_SMOKE_JSON:-BENCH_mutate.json}"
ulimit -n 4096 || true

"$BUILD_DIR/tools/orx_serve" --port 0 --scale "$SCALE" --mutate \
  >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
trap 'kill -9 "$SERVE_PID" 2>/dev/null || true; rm -f "$SERVE_LOG"' EXIT

PORT=""
for _ in $(seq 1 120); do
  PORT="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\)$/\1/p' "$SERVE_LOG")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$SERVE_LOG"; exit 1; }
  sleep 0.5
done
[ -n "$PORT" ] || { echo "server never reported its port"; cat "$SERVE_LOG"; exit 1; }
grep -q "write path on" "$SERVE_LOG" || {
  echo "FAILED: server did not enable the write path"; cat "$SERVE_LOG"; exit 1; }
echo "=== orx_serve up on port $PORT (write path on) ==="

echo "=== mixed load: $CONNECTIONS connections, 50/50 read/write, ${LOAD_SECONDS}s ==="
# Captured, then printed: `tee /dev/stderr` reopens a stderr that is a
# regular file with truncation, erasing the log printed before the load.
LOAD_STATUS=0
LOAD_OUT="$("$BUILD_DIR/tools/orx_client" --mode load --port "$PORT" \
  --scale "$SCALE" --connections "$CONNECTIONS" --threads 4 \
  --duration "$LOAD_SECONDS" --write-fraction 0.5 \
  --json "$BENCH_JSON")" || LOAD_STATUS=$?
printf '%s\n' "$LOAD_OUT" >&2
[ "$LOAD_STATUS" -eq 0 ] || exit "$LOAD_STATUS"

# The load client already fails on dropped frames and on a write path
# that never publishes. Additionally require a sustained publication
# cadence and a bounded read-p99 spread across windows.
PUBLICATIONS="$(sed -n 's/.*snapshots_published=\([0-9]*\).*/\1/p' <<<"$LOAD_OUT")"
if [ -z "$PUBLICATIONS" ] || [ "$PUBLICATIONS" -lt "$MIN_PUBLICATIONS" ]; then
  echo "FAILED: expected >= $MIN_PUBLICATIONS snapshot publications, saw '${PUBLICATIONS:-unparsed}'"
  exit 1
fi
CLIFF_OK="$(sed -n 's/^read p99 by window: min=\([0-9.]*\)ms max=\([0-9.]*\)ms.*/\1 \2/p' <<<"$LOAD_OUT" \
  | awk -v bound="$MAX_P99_CLIFF" '{ exit !($1 > 0 && $2 <= bound * $1) }' \
  && echo yes || echo no)"
if [ "$CLIFF_OK" != "yes" ]; then
  echo "FAILED: read p99 cliff across publication windows (bound ${MAX_P99_CLIFF}x)"
  exit 1
fi
echo "=== $PUBLICATIONS snapshot publications, read p99 within ${MAX_P99_CLIFF}x across windows ==="

echo "=== SIGTERM drain ==="
kill -TERM "$SERVE_PID"
for _ in $(seq 1 60); do
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.5
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  echo "FAILED: server did not exit after SIGTERM"
  cat "$SERVE_LOG"
  exit 1
fi
wait "$SERVE_PID" || { echo "FAILED: server exited non-zero"; cat "$SERVE_LOG"; exit 1; }
grep -q "unanswered=0" "$SERVE_LOG" || {
  echo "FAILED: drain left unanswered frames"; cat "$SERVE_LOG"; exit 1; }
grep -q "write path drained" "$SERVE_LOG" || {
  echo "FAILED: write path did not drain"; cat "$SERVE_LOG"; exit 1; }
tail -4 "$SERVE_LOG"
echo "mutate-smoke: PASS"
