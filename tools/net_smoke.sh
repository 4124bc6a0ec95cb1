#!/usr/bin/env bash
# End-to-end smoke of the network front end (the "net-smoke" CI gate):
# starts orx_serve on an ephemeral port, runs the client's e2e mode
# (wire responses vs in-process goldens) as four concurrent clients, so
# the byte-exact explain and reformulate goldens are checked while their
# stages share the server's pool, then a short load burst, and checks
# the accounting: every e2e client passes, zero dropped (unanswered)
# frames, zero unexpected error frames, and a clean SIGTERM drain.
# It prints the server's service bounds once it is up and its peak RSS
# (VmHWM) before the drain, so every run records the server's memory.
#
# usage: tools/net_smoke.sh [build-dir] [load-seconds] [connections]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
LOAD_SECONDS="${2:-5}"
CONNECTIONS="${3:-200}"
SCALE="${ORX_NET_SMOKE_SCALE:-0.05}"
E2E_CLIENTS=4
SERVE_LOG="$(mktemp)"
E2E_DIR="$(mktemp -d)"
ulimit -n 4096 || true

"$BUILD_DIR/tools/orx_serve" --port 0 --scale "$SCALE" >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
E2E_PIDS=()
trap 'kill -9 "$SERVE_PID" "${E2E_PIDS[@]}" 2>/dev/null || true
      rm -rf "$SERVE_LOG" "$E2E_DIR"' EXIT

PORT=""
for _ in $(seq 1 120); do
  PORT="$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\)$/\1/p' "$SERVE_LOG")"
  [ -n "$PORT" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || { cat "$SERVE_LOG"; exit 1; }
  sleep 0.5
done
[ -n "$PORT" ] || { echo "server never reported its port"; cat "$SERVE_LOG"; exit 1; }
echo "=== orx_serve up on port $PORT ==="
grep "^orx_serve: service " "$SERVE_LOG" || true

echo "=== e2e: $E2E_CLIENTS concurrent clients, wire vs in-process goldens ==="
for i in $(seq 1 "$E2E_CLIENTS"); do
  "$BUILD_DIR/tools/orx_client" --mode e2e --port "$PORT" --scale "$SCALE" \
    >"$E2E_DIR/$i.log" 2>&1 &
  E2E_PIDS+=($!)
done
E2E_FAILED=0
for i in $(seq 1 "$E2E_CLIENTS"); do
  if wait "${E2E_PIDS[$((i - 1))]}"; then
    echo "e2e client $i: $(tail -1 "$E2E_DIR/$i.log")"
  else
    echo "e2e client $i FAILED:"
    cat "$E2E_DIR/$i.log"
    E2E_FAILED=1
  fi
done
E2E_PIDS=()
if [ "$E2E_FAILED" -ne 0 ]; then
  echo "FAILED: not every concurrent e2e client passed"
  exit 1
fi

echo "=== load: $CONNECTIONS connections, ${LOAD_SECONDS}s burst ==="
# Captured, then printed: `tee /dev/stderr` reopens a stderr that is a
# regular file with truncation, erasing the log printed before the burst.
LOAD_STATUS=0
LOAD_OUT="$("$BUILD_DIR/tools/orx_client" --mode load --port "$PORT" \
  --scale "$SCALE" --connections "$CONNECTIONS" --threads 4 \
  --duration "$LOAD_SECONDS" --churn 0.02 --json /dev/null)" || LOAD_STATUS=$?
printf '%s\n' "$LOAD_OUT" >&2
[ "$LOAD_STATUS" -eq 0 ] || exit "$LOAD_STATUS"

# The load client already fails on dropped frames; additionally require
# that the healthy burst produced no error frames at all (nothing here
# should be rejected or malformed).
ERRORS="$(sed -n 's/^error_frames=\([0-9]*\) .*/\1/p' <<<"$LOAD_OUT")"
if [ -z "$ERRORS" ] || [ "$ERRORS" -ne 0 ]; then
  echo "FAILED: expected zero error frames, saw '${ERRORS:-unparsed}'"
  exit 1
fi

echo "=== server peak RSS ==="
grep VmHWM "/proc/$SERVE_PID/status" || echo "VmHWM: unavailable"

echo "=== SIGTERM drain ==="
kill -TERM "$SERVE_PID"
for _ in $(seq 1 40); do
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
tail -4 "$SERVE_LOG"
echo "net-smoke: PASS"
