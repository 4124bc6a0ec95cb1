#!/usr/bin/env bash
# Builds every fuzz harness under ASan+UBSan and runs each over its
# checked-in corpus (fuzz/corpus/<target>/) plus a time-budgeted mutation
# pass. Any crash, sanitizer report, leak, or harness trap fails the
# script — this is the "fuzz-smoke" CI gate.
#
# usage: tools/run_fuzzers.sh [seconds-per-target]   (default 30)
set -euo pipefail
cd "$(dirname "$0")/.."

SECONDS_PER_TARGET="${1:-30}"
BUILD_DIR="${ORX_FUZZ_BUILD_DIR:-build-fuzz}"
TARGETS=(dblp_xml graph_tsv container text net_frame mutation)

cmake -B "$BUILD_DIR" -S . \
  -DORX_FUZZ=ON \
  -DORX_SANITIZE=address,undefined \
  -DORX_BUILD_TESTS=OFF -DORX_BUILD_BENCHMARKS=OFF -DORX_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j \
  --target "${TARGETS[@]/%/_fuzz}"

status=0
for target in "${TARGETS[@]}"; do
  echo "=== ${target}_fuzz: corpus replay + ${SECONDS_PER_TARGET}s mutations ==="
  if ! ASAN_OPTIONS=abort_on_error=1:detect_leaks=1:allocator_may_return_null=0 \
       UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
       "$BUILD_DIR/fuzz/${target}_fuzz" "fuzz/corpus/${target}" \
         -max_total_time="$SECONDS_PER_TARGET" -seed=1; then
    echo "FAILED: ${target}_fuzz"
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "all ${#TARGETS[@]} fuzz targets clean"
fi
exit $status
