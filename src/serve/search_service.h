#ifndef ORX_SERVE_SEARCH_SERVICE_H_
#define ORX_SERVE_SEARCH_SERVICE_H_

#include <array>
#include <chrono>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/searcher.h"
#include "serve/serve_metrics.h"
#include "serve/snapshot.h"
#include "text/query.h"

namespace orx::serve {

/// One query as submitted to the service.
struct ServeRequest {
  text::QueryVector query;
  /// Per-request option override; unset = the snapshot's defaults. The
  /// numeric option fields participate in the result-cache key, so two
  /// requests only share work when their options agree.
  std::optional<core::SearchOptions> options;
  /// End-to-end budget in seconds, measured from Submit() — queue time
  /// counts against it. 0 = the service default; a negative value
  /// disables the deadline for this request.
  double deadline_seconds = 0.0;
  /// Per-request tier hint: anything other than kAuto overrides the
  /// effective options' tier (whether they came from `options` or the
  /// snapshot defaults). kAuto defers to the options and, when
  /// Options::enable_tier_policy is set, to the adaptive policy.
  core::SearchTier tier = core::SearchTier::kAuto;
};

/// What a fulfilled request carries.
struct ServeResponse {
  core::SearchResult result;
  /// Served from a completed result-cache entry (no execution).
  bool cache_hit = false;
  /// Waited on an identical in-flight execution (single flight).
  bool coalesced = false;
  /// Version of the snapshot the result was computed against.
  uint64_t snapshot_version = 0;
  /// Seconds the leader execution spent queued behind the pool (0 for
  /// cache hits and coalesced waiters). For a batched execution this
  /// includes the collection-window wait.
  double queue_seconds = 0.0;
  /// Submit() -> fulfillment, seconds.
  double total_seconds = 0.0;
  /// Lanes in the block power iteration this result was computed in:
  /// 0 = not executed via the batch scheduler (cache hit, coalesced
  /// waiter, or batching off), >= 1 = ran as one of that many lanes.
  size_t batch_lanes = 0;
};

/// A multi-threaded embedded query service over core::Searcher.
///
/// Requests run on a fixed common::ThreadPool behind a *bounded* admission
/// count: when max_pending executions are already admitted and unfinished,
/// Submit() fails fast with kUnavailable instead of queueing unboundedly —
/// under overload the caller sheds load instead of building an invisible
/// latency backlog. Cache hits and coalesced requests bypass admission
/// (they consume no execution slot).
///
/// Identical concurrent queries are collapsed to a single execution
/// ("single flight"): the first request becomes the leader, later ones
/// attach as waiters and are fulfilled from the leader's result. Completed
/// successful results additionally populate an LRU result cache keyed by
/// the normalized query terms/weights, the numeric search options, and the
/// snapshot version, so repeated queries are served without touching the
/// engine at all.
///
/// The dataset is swapped atomically: each request pins the
/// shared_ptr<const ServeSnapshot> that was current at submission and uses
/// it for its whole lifetime, so SwapSnapshot() never races with queries
/// in flight. A swap bumps the snapshot version; cached results are kept
/// for the Options::result_cache_versions most recent versions (keys
/// embed the version they were computed against) and only entries that
/// slide out of that window are evicted, so a steady read workload keeps
/// its hit rate across hot swaps.
///
/// Per-request deadlines are enforced cooperatively: the service installs
/// a cancellation hook on ObjectRankOptions that trips once the deadline
/// passes, the power iteration stops at the next iteration boundary, and
/// the request completes with kDeadlineExceeded (partial scores are
/// discarded). Requests still queued when their deadline expires fail
/// without executing.
///
/// With Options::max_batch_size > 1 the service additionally runs a
/// dynamic micro-batch scheduler: admitted cache-miss executions whose
/// snapshot version, rates fingerprint, and numeric options agree collect
/// in a bounded window (flushed when full or after max_batch_delay_ms)
/// and run as one block power iteration — the graph is streamed once for
/// all lanes, each lane keeps its own deadline, flight, and result-cache
/// entry, and a lane whose deadline trips retires without aborting the
/// batch. See docs/batching.md.
class SearchService {
 public:
  struct Options {
    /// Worker threads; 0 = one per hardware thread.
    size_t num_threads = 0;
    /// Admission bound: maximum executions admitted but not yet finished
    /// (running + queued). Beyond it Submit() returns kUnavailable.
    size_t max_pending = 64;
    /// Completed-result LRU capacity in entries; 0 disables result
    /// caching (single-flight coalescing is controlled separately).
    size_t result_cache_entries = 512;
    /// How many of the most recent snapshot versions keep their cached
    /// results across SwapSnapshot(). 1 = a swap drops the whole cache
    /// (every hit is computed against the current snapshot); N > 1 =
    /// entries from the previous N-1 versions may still be served — the
    /// response reports the snapshot_version the result was computed
    /// against, and lookups prefer the newest version's entry.
    size_t result_cache_versions = 2;
    /// Collapse identical concurrent queries into one execution.
    bool single_flight = true;
    /// Deadline applied to requests that don't carry their own;
    /// 0 = no default deadline.
    double default_deadline_seconds = 0.0;
    /// Dynamic micro-batching (docs/batching.md): cache-miss executions
    /// whose snapshot version, transfer-rates fingerprint, and numeric
    /// option fingerprint all agree collect in a bounded window and run
    /// as one block power iteration (core::ObjectRankEngine::ComputeBatch)
    /// — the graph is streamed once for all lanes. <= 1 disables
    /// batching (every execution runs alone, the pre-batching behavior).
    size_t max_batch_size = 1;
    /// How long an open batch window waits for more lanes before it
    /// flushes, milliseconds. A window also flushes the moment it reaches
    /// max_batch_size, so lightly loaded services pay at most this much
    /// added latency and saturated ones pay none.
    double max_batch_delay_ms = 2.0;
    /// Serve-time tier policy (docs/serving.md). When on, a request whose
    /// tier is still kAuto after the per-request hint and whose deadline
    /// is below tier_cached_deadline_seconds runs as kCached; every other
    /// request keeps kAuto. kCached runs the same cache-or-exact path as
    /// kAuto — the policy only relabels, so a cache miss still runs the
    /// exact kernel and is reported as escalated. Load never changes the
    /// tier.
    bool enable_tier_policy = false;
    /// Deadline below which the policy marks a kAuto request kCached.
    double tier_cached_deadline_seconds = 0.02;
  };

  /// `snapshot` must be Complete(). Worker threads start immediately.
  SearchService(std::shared_ptr<const ServeSnapshot> snapshot,
                Options options);

  /// Drains in-flight requests, then joins the workers.
  ~SearchService();

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  /// Submits a request. The returned future is fulfilled with the
  /// response, or with kUnavailable (admission overflow, already set when
  /// Submit returns), kDeadlineExceeded, or the underlying search error.
  /// Never blocks on the queue.
  std::future<StatusOr<ServeResponse>> Submit(ServeRequest request);

  /// Completion hook for SubmitAsync: invoked exactly once with the same
  /// response Submit()'s future would carry.
  using Callback = std::function<void(StatusOr<ServeResponse>)>;

  /// Callback-style submission for event-driven callers (the network
  /// front end): no future to park a thread on. `done` runs exactly once
  /// — synchronously on the calling thread for requests resolved at
  /// Submit time (cache hits, admission rejections), otherwise on the
  /// pool thread that completes the execution. It runs outside the
  /// service mutex, so it may re-enter the service, but it occupies its
  /// worker while it runs — keep it short (hand heavy work elsewhere).
  void SubmitAsync(ServeRequest request, Callback done);

  /// Blocking convenience: Submit(request).get().
  StatusOr<ServeResponse> Search(ServeRequest request);

  /// Atomically replaces the dataset snapshot for *future* requests;
  /// requests in flight finish against the snapshot they admitted with.
  /// Bumps the snapshot version and evicts only the cached results that
  /// fell out of the Options::result_cache_versions retention window.
  /// `snapshot` must be Complete().
  void SwapSnapshot(std::shared_ptr<const ServeSnapshot> snapshot);

  /// The snapshot new requests would currently use, and its version.
  std::shared_ptr<const ServeSnapshot> snapshot() const;
  uint64_t snapshot_version() const;

  /// Point-in-time counters and latency percentiles, read as one
  /// consistent cut: `completed` is loaded first with acquire ordering
  /// and every completion publishes with release ordering *after* its
  /// action counter (cache hit / coalesced / executed), so a snapshot
  /// never shows a completion whose action counter is missing —
  /// `completed <= cache_hits + coalesced + executed` and
  /// `completed <= submitted` hold in every snapshot, even mid-burst.
  /// Rates (qps, occupancy mean) are derived from this one cut.
  ServeMetrics Snapshot() const;

  size_t num_threads() const { return pool_->num_threads(); }

  /// The intra-query thread budget of one request on a service running
  /// `pool_workers` concurrent executions: `requested` clamped to
  /// [1, hardware_threads / pool_workers]. Submit() applies this to every
  /// request (before the cache key is computed, so oversized requests
  /// still coalesce), guaranteeing requests x intra-query threads never
  /// oversubscribes the host — see "Threading contract" in
  /// docs/serving.md.
  static int CapIntraQueryThreads(int requested, size_t pool_workers);

 private:
  using Clock = std::chrono::steady_clock;
  using ResponseOr = StatusOr<ServeResponse>;

  /// How one request's outcome is delivered: a promise (Submit) or a
  /// callback (SubmitAsync). Exactly one delivery happens per request.
  struct Completion {
    std::optional<std::promise<ResponseOr>> promise;
    Callback callback;

    void Deliver(ResponseOr response) {
      if (callback) {
        callback(std::move(response));
      } else {
        promise->set_value(std::move(response));
      }
    }
  };
  using CompletionPtr = std::shared_ptr<Completion>;

  /// A coalesced request waiting on an in-flight leader.
  struct Waiter {
    CompletionPtr completion;
    Clock::time_point submit_time;
  };

  /// Single-flight record for one key while its leader executes.
  struct Flight {
    std::vector<Waiter> waiters;
  };

  /// Completed result-cache entry (LRU list node).
  struct CachedResult {
    std::string key;
    uint64_t snapshot_version = 0;
    core::SearchResult result;
  };

  /// One admitted cache-miss execution waiting in a batch window. Keeps
  /// everything Execute() would have owned: its own flight key (so
  /// single-flight waiters resolve per lane), promise, and deadline.
  struct BatchLane {
    std::string key;
    text::QueryVector query;
    std::function<bool()> caller_cancel;
    CompletionPtr completion;
    Clock::time_point submit_time;
    Clock::time_point deadline;
    bool has_deadline = false;
  };

  /// An open collection window: lanes with the same batch key gathering
  /// until the window fills or its delay expires. Every field is guarded
  /// by the *service* mu_ (not expressible as ORX_GUARDED_BY, which only
  /// names capabilities reachable from the annotated object — the
  /// runtime validator covers this edge instead); the leader task sleeps
  /// on cv under mu_ until `closed`.
  struct PendingBatch {
    std::shared_ptr<const ServeSnapshot> snapshot;
    uint64_t version = 0;
    /// Shared numeric options (identical across lanes by construction of
    /// the batch key); the cancel hook is per lane, not in here.
    core::SearchOptions options;
    Clock::time_point created;
    std::vector<BatchLane> lanes;
    bool closed = false;
    CondVar cv;
  };

  /// The version-independent part of the cache key: numeric options
  /// fingerprint + term-sorted (term, weight) pairs. The canonical key is
  /// "v<version>|" + suffix; the prefix is kept separable so the cache
  /// lookup can probe the retained older versions too (see
  /// Options::result_cache_versions).
  static std::string RequestKeySuffix(const text::QueryVector& query,
                                      const core::SearchOptions& options);

  /// Probes the result cache for `suffix` under every retained snapshot
  /// version, newest first (caller holds mu_). On a hit promotes the
  /// entry, fills `hit`, and returns true.
  bool LookupCacheLocked(const std::string& suffix, ServeResponse& hit)
      ORX_REQUIRES(mu_);

  /// The batch-compatibility fingerprint: RequestKey minus the query
  /// terms, plus the snapshot's transfer-rates fingerprint. Two
  /// executions may share a block power iteration iff their batch keys
  /// are equal.
  static std::string BatchKey(const core::SearchOptions& options,
                              uint64_t version, uint64_t rates_fingerprint);

  /// Shared body of Submit/SubmitAsync: admission, coalescing, cache
  /// lookup, and dispatch for one request whose delivery target is
  /// already packaged in `completion`.
  void SubmitInternal(ServeRequest request, CompletionPtr completion);

  void Execute(std::string key, ServeRequest request,
               std::shared_ptr<const ServeSnapshot> snapshot,
               uint64_t version, core::SearchOptions options,
               CompletionPtr completion, Clock::time_point submit_time,
               Clock::time_point deadline, bool has_deadline);

  /// Leader task of one batch window: waits (on cv, up to
  /// max_batch_delay_ms) for the window to fill or expire, removes it
  /// from open_batches_, and runs the collected lanes.
  void ExecuteBatch(std::shared_ptr<PendingBatch> batch,
                    std::string batch_key);

  /// Runs the lanes of a flushed window through one
  /// core::Searcher::SearchBatch call and completes each lane.
  void RunBatch(const std::shared_ptr<PendingBatch>& batch,
                std::vector<BatchLane> lanes);

  /// Completes one admitted execution: error counters, slot release,
  /// single-flight waiter resolution, result caching, and fulfillment.
  /// Shared tail of Execute() and RunBatch().
  void FinishExecution(const std::string& key, uint64_t version,
                       const StatusOr<core::SearchResult>& result,
                       const CompletionPtr& completion,
                       Clock::time_point submit_time, double queue_seconds,
                       size_t batch_lanes);

  /// Delivers a response and records the completion metrics.
  void Fulfill(const CompletionPtr& completion, ResponseOr response,
               Clock::time_point submit_time);

  /// Inserts a completed result into the LRU (caller holds mu_).
  void CacheResultLocked(const std::string& key, uint64_t version,
                         const core::SearchResult& result) ORX_REQUIRES(mu_);

  const Options options_;
  const Clock::time_point start_time_;

  mutable Mutex mu_{"search_service.mu"};
  std::shared_ptr<const ServeSnapshot> snapshot_ ORX_GUARDED_BY(mu_);
  uint64_t version_ ORX_GUARDED_BY(mu_) = 1;
  size_t pending_ ORX_GUARDED_BY(mu_) = 0;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_
      ORX_GUARDED_BY(mu_);
  /// Open batch windows by batch key. An entry is always joinable: it is
  /// erased the moment it closes (fills, expires, or service shutdown),
  /// so a late arrival opens a fresh window instead of racing a flush.
  std::unordered_map<std::string, std::shared_ptr<PendingBatch>>
      open_batches_ ORX_GUARDED_BY(mu_);
  std::list<CachedResult> lru_ ORX_GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<std::string, std::list<CachedResult>::iterator> cached_
      ORX_GUARDED_BY(mu_);

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batched_queries_{0};
  std::atomic<uint64_t> batch_occupancy_max_{0};
  std::atomic<uint64_t> tier_exact_{0};
  std::atomic<uint64_t> tier_cached_{0};
  std::atomic<uint64_t> escalations_{0};
  /// Indexed by core::CacheMissReason (kNone unused but keeps the
  /// indexing direct).
  std::array<std::atomic<uint64_t>, 6> miss_reasons_{};
  LatencyHistogram latency_;
  /// Execution-stage latency per result tier.
  LatencyHistogram tier_exact_latency_;
  LatencyHistogram tier_cached_latency_;

  /// Last member: destroyed (drained) first, so tasks never touch dead
  /// state.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace orx::serve

#endif  // ORX_SERVE_SEARCH_SERVICE_H_
