#ifndef ORX_SERVE_SERVE_METRICS_H_
#define ORX_SERVE_SERVE_METRICS_H_

#include <cstdint>
#include <string>

namespace orx::serve {

/// A point-in-time snapshot of SearchService's operational counters.
/// Counters are cumulative since service construction; latencies come
/// from a fixed-bucket histogram (see common/histogram.h), so the
/// percentiles carry that histogram's ~25% bucket resolution.
///
/// Deliberately lock-free and annotation-free: this is a plain value
/// type filled from atomics inside SearchService::Snapshot() — no field
/// here is ever shared mutable state, so nothing carries ORX_GUARDED_BY
/// (see docs/correctness.md, "Static thread-safety analysis").
struct ServeMetrics {
  /// Requests presented to Submit(), including rejected ones.
  uint64_t submitted = 0;
  /// Requests refused at admission because max_pending executions and
  /// stages were already in service (kUnavailable).
  uint64_t rejected = 0;
  /// Requests answered from a completed result-cache entry.
  uint64_t cache_hits = 0;
  /// Requests that piggybacked on an identical in-flight execution
  /// (single flight): N concurrent identical queries = 1 execution and
  /// N-1 coalesced requests.
  uint64_t coalesced = 0;
  /// Executions actually run on the pool (single-flight leaders).
  uint64_t executed = 0;
  /// Executions abandoned because their deadline expired (queued or
  /// mid-iteration), plus stages whose deadline expired before they
  /// started.
  uint64_t deadline_exceeded = 0;
  /// Executions that finished with a non-OK status other than
  /// kDeadlineExceeded (e.g. kNotFound for unknown keywords).
  uint64_t failed = 0;
  /// Requests whose future has been fulfilled (hits + coalesced +
  /// executions; excludes admission rejections).
  uint64_t completed = 0;

  /// Executions answered per tier (core::SearchTier of the *result*, so
  /// a kAuto request the rank cache declined counts under tier_exact,
  /// and its reason below). Only successful executions count;
  /// serve-level result-cache hits are `cache_hits` above, not tiers —
  /// tier_cached is the rank-cache tier.
  uint64_t tier_exact = 0;
  uint64_t tier_cached = 0;

  /// Rank-cache miss reasons of executions (core::CacheMissReason; kNone
  /// — a hit, or a tier that never consulted the cache — is not counted).
  uint64_t miss_no_cache = 0;
  uint64_t miss_rates_mismatch = 0;
  uint64_t miss_bm25_mismatch = 0;
  uint64_t miss_missing_terms = 0;
  uint64_t miss_error_budget = 0;

  /// Per-tier execution-stage latency (SearchResult::seconds — the
  /// kernel, not queueing), seconds.
  double tier_exact_p50 = 0.0;
  double tier_exact_p99 = 0.0;
  double tier_cached_p50 = 0.0;
  double tier_cached_p99 = 0.0;

  /// Seconds since the service was constructed.
  double uptime_seconds = 0.0;
  /// completed / uptime_seconds.
  double qps = 0.0;

  /// End-to-end request latency (submit -> future fulfilled), seconds.
  double latency_mean = 0.0;
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;

  /// One-line rendering for benchmarks and the CLI.
  std::string ToString() const;
};

}  // namespace orx::serve

#endif  // ORX_SERVE_SERVE_METRICS_H_
