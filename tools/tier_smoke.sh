#!/usr/bin/env bash
# Tier smoke (the "tier-smoke" CI gate): runs bench_tier_frontier on a
# scaled DBLPcomplete and asserts the hard properties of the tier stack —
# every reported additive error bound dominates the measured L-inf error,
# every answer matches the exact top-k exactly (precision@10 == 1.0 in
# every non-empty slice: each answer is exact or certified), every
# search of the cached configurations (kAuto over a rank cache) is a
# cache hit or a miss counted by its cache_miss_reason, and the
# compressed RankCache lands the >= 4x size reduction.
# The frontier's latency numbers are informational; the gate is about
# soundness, not speed. The record lands in BENCH_tier_frontier.json;
# when a previous artifact is restored at that path the new records are
# appended, so the file accumulates per run for trend lines.
#
# usage: tools/tier_smoke.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
SCALE="${ORX_BENCH_SCALE:-0.1}"

cmake --build "$BUILD_DIR" -j --target bench_tier_frontier

PREVIOUS=""
if [ -f BENCH_tier_frontier.json ]; then
  PREVIOUS="$(cat BENCH_tier_frontier.json)"
fi

echo "=== bench_tier_frontier: exact / cached tiers at scale $SCALE ==="
ORX_BENCH_SCALE="$SCALE" "$BUILD_DIR/bench/bench_tier_frontier"

python3 - "$PREVIOUS" <<'EOF'
import json, sys

with open("BENCH_tier_frontier.json") as f:
    records = json.load(f)
assert records, "no tier records produced"

tiers = set()
for r in records:
    tier, band = r["tier"], r["band"]
    tiers.add(tier)
    # Hard property 1: every reported bound dominates the measured error.
    assert r["bound_holds"], (
        f"{tier}/{band}: reported bound {r['max_reported_bound']} below "
        f"measured L-inf {r['max_measured_linf']}")
    # Hard property 2: every answer is exact or a certified top-k set,
    # which IS the exact top-k set, so every slice scores perfect
    # precision.
    if r["queries"] > 0:
        assert r["precision_at_k"] >= 1.0, (
            f"{tier}/{band}: precision@k is {r['precision_at_k']}")
    if tier.startswith("cached") and band == "all" and r["queries"] > 0:
        assert r["cache_hits"] + r["cache_misses"] >= r["queries"], (
            f"{tier}: {r['cache_hits']} hits + {r['cache_misses']} "
            f"counted misses cover only part of {r['queries']} queries")
    if tier == "cached_compressed" and band == "all":
        ratio = r["cache_compression_ratio"]
        assert ratio >= 4.0, f"compressed cache only {ratio:.1f}x smaller"
        print(f"OK compression: {r['cache_bytes_dense']} -> "
              f"{r['cache_bytes_compressed']} bytes ({ratio:.1f}x)")

for expected in ("exact", "cached_dense", "cached_compressed"):
    assert expected in tiers, f"tier {expected} missing from the sweep"

for r in records:
    if r["band"] == "all":
        print(f"OK {r['tier']}: {r['queries']} queries, "
              f"{r['cache_misses']} cache misses, "
              f"precision@{r['k']} {r['precision_at_k']:.4f}, "
              f"p50 {r['latency_p50_ms']:.3f}ms "
              f"(x{r['speedup_vs_exact_p50']:.1f} vs exact)")

# Append onto a restored artifact so successive CI runs accumulate.
previous = json.loads(sys.argv[1]) if sys.argv[1].strip() else []
if previous:
    records = previous + records
    with open("BENCH_tier_frontier.json", "w") as f:
        json.dump(records, f)
    print(f"appended onto {len(previous)} restored record(s)")
EOF

echo "tier smoke passed"
