#!/usr/bin/env bash
# One-command data-race check: builds the concurrency-sensitive tests
# under ThreadSanitizer and runs the ctest label that covers the thread
# pool, the rank-cache parallel build, logging, the latency histogram,
# the fused SpMV power-iteration kernel, and the serving subsystem.
#
#   tools/check_tsan.sh [build-dir]        (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DORX_SANITIZE=thread \
  -DORX_BUILD_BENCHMARKS=OFF \
  -DORX_BUILD_EXAMPLES=OFF
# Keep this target list in sync with the `tsan` label in
# tests/CMakeLists.txt, or newly labeled tests show up as "Not Run".
cmake --build "$BUILD_DIR" -j \
  --target mutex_test thread_pool_test histogram_test logging_test \
           rank_cache_test concurrent_search_test serve_test net_test \
           mutate_test epoch_reclaim_test spmv_kernel_test \
           batch_kernel_test cache_tier_test
ctest --test-dir "$BUILD_DIR" -L tsan --output-on-failure
echo "TSan suite passed."
