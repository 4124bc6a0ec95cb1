#!/usr/bin/env bash
# Drives the orx_cli shell through one session and checks every step's
# success line: generate a DBLP dataset, pack it as an ORXD2 container,
# load the container back, then query / explain / feedback over the
# attached dataset and deep-validate the file.
#
# usage: tools/orx_cli_smoke.sh <orx_cli binary> <scratch directory>
set -euo pipefail

CLI="$1"
WORK_DIR="$2"
mkdir -p "$WORK_DIR"
PACKED="$WORK_DIR/orx_cli_smoke.orxd2"

OUT="$(printf '%s\n' \
  'generate dblp 300' \
  "pack $PACKED" \
  "load $PACKED" \
  'query data' \
  'explain 1' \
  'feedback 1' \
  "validate $PACKED" \
  'quit' | "$CLI")"

status=0
# One pattern per step, in session order.
for want in \
    "dataset 'dblp" \
    "packed $PACKED" \
    "attached $PACKED" \
    'base set ' \
    'explaining fixpoint iterations' \
    'rerunning...' \
    'mmap dataset OK'; do
  if ! grep -qF -- "$want" <<<"$OUT"; then
    echo "orx_cli_smoke: missing step output: $want"
    status=1
  fi
done
if [ "$status" -ne 0 ]; then
  echo "--- orx_cli output ---"
  echo "$OUT"
fi
rm -f "$PACKED"
exit $status
