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
  /// Per-request result-count hint: nonzero overrides the effective
  /// options' k (whether they came from `options` or the snapshot
  /// defaults), so a caller can size the top list without reading a
  /// snapshot of its own. Whatever its source, k is clamped to the
  /// snapshot's node count before the cache key is built, so every
  /// oversized k shares one execution and one cache entry.
  size_t k = 0;
  /// End-to-end budget in seconds, measured from Submit() — queue time
  /// counts against it. 0 = the service default; a negative value
  /// disables the deadline for this request.
  double deadline_seconds = 0.0;
  /// Per-request tier hint: kExact overrides the effective options' tier
  /// (whether they came from `options` or the snapshot defaults); kAuto
  /// defers to the options. kCached is not a request tier, and the
  /// search fails with kInvalidArgument.
  core::SearchTier tier = core::SearchTier::kAuto;
};

/// What a fulfilled request carries.
struct ServeResponse {
  /// The search result: immutable, and shared with the result cache and
  /// with every request it answered, so handing it on costs a refcount,
  /// never a copy of its n-entry score vector. `result->top` is always
  /// complete. `result->scores` is the full vector for every stage
  /// (SubmitStage) and for every executed or coalesced response; a plain
  /// cache hit may carry an empty one, because the cache keeps vectors
  /// only within SearchService::kScoreCacheBytes.
  std::shared_ptr<const core::SearchResult> result;
  /// The snapshot the request was admitted with; render node labels from
  /// it. `result` was computed against it, except that a plain search may
  /// be answered from a cache entry retained from an older version
  /// (snapshot_version says which; node ids only ever grow, so every node
  /// in such a result exists here). A stage never is (SubmitStage).
  std::shared_ptr<const ServeSnapshot> snapshot;
  /// Served from a completed result-cache entry (no execution).
  bool cache_hit = false;
  /// Waited on an identical in-flight execution (single flight).
  bool coalesced = false;
  /// Version of the snapshot the result was computed against.
  uint64_t snapshot_version = 0;
  /// Seconds the leader execution spent queued behind the pool (0 for
  /// cache hits and coalesced waiters).
  double queue_seconds = 0.0;
  /// Submit() -> fulfillment, seconds.
  double total_seconds = 0.0;
};

/// A multi-threaded embedded query service over core::Searcher.
///
/// Requests run on a fixed common::ThreadPool behind a *bounded* admission
/// count: when max_pending executions are already admitted and unfinished,
/// Submit() fails fast with kUnavailable instead of queueing unboundedly —
/// under overload the caller sheds load instead of building an invisible
/// latency backlog. Cache hits and coalesced requests bypass admission
/// (they consume no execution slot), except a stage's (SubmitStage).
///
/// Identical concurrent queries are collapsed to a single execution
/// ("single flight"): the first request becomes the leader, later ones
/// attach as waiters and are fulfilled from the leader's result. Completed
/// successful results additionally populate an LRU result cache keyed by
/// the normalized query terms/weights, the numeric search options, and the
/// snapshot version, so repeated queries are served without touching the
/// engine at all. The cache bounds its entries by count
/// (Options::result_cache_entries) and their score vectors by bytes
/// (kScoreCacheBytes): past the budget, the least recently used entries
/// keep their top list but drop their vector. A plain search is answered
/// by either kind of entry. A stage needs the vector, so on an entry
/// without one its search executes again, which restores the vector.
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
/// Work too heavy for the caller's thread (the network front end's
/// explain and reformulate) runs as a *stage* (SubmitStage): the
/// request's search resolves as above, then the stage runs on a pool
/// worker inside one admission slot and under the request's deadline.
///
/// Every execution runs alone: requests are never held back to share a
/// block power iteration (docs/batching.md says why).
class SearchService {
 public:
  struct Options {
    /// Worker threads; 0 = one per hardware thread.
    size_t num_threads = 0;
    /// Admission bound: maximum executions and stages admitted but not
    /// yet finished (running + queued). Beyond it Submit() returns
    /// kUnavailable.
    size_t max_pending = 64;
    /// Completed-result LRU capacity in entries; 0 disables result
    /// caching (identical concurrent requests still coalesce). Every
    /// entry keeps its top list; only the most recently used keep their
    /// score vectors, within kScoreCacheBytes.
    size_t result_cache_entries = 512;
    /// How many of the most recent snapshot versions keep their cached
    /// results across SwapSnapshot(). 1 = a swap drops the whole cache
    /// (every hit is computed against the current snapshot); N > 1 =
    /// entries from the previous N-1 versions may still be served — the
    /// response reports the snapshot_version the result was computed
    /// against, and lookups prefer the newest version's entry.
    size_t result_cache_versions = 2;
    /// Deadline applied to requests that don't carry their own;
    /// 0 = no default deadline.
    double default_deadline_seconds = 0.0;
    /// Inert: the serve-time micro-batch scheduler is deleted, and the
    /// constructor accepts only this default. Kept only because
    /// orxbench assigns it; it goes with ROADMAP 3(a)'s [benchmark]
    /// change, which drops that assignment.
    size_t max_batch_size = 1;
    /// Inert: the tier policy is deleted, and the constructor accepts
    /// only this default. Kept only because orxbench assigns it; it goes
    /// with ROADMAP 3(a)'s [benchmark] change, which drops that
    /// assignment.
    bool enable_tier_policy = false;
  };

  /// The result cache's budget for score vectors, in bytes. Each entry is
  /// charged scores.size() * sizeof(double). Past the budget the least
  /// recently used entries that still hold a vector drop it; bytes never
  /// evict an entry. At 22,640 nodes the budget holds 92 vectors, at
  /// 876k nodes 2; a vector larger than the budget is dropped at once.
  static constexpr size_t kScoreCacheBytes = size_t{16} << 20;

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
  /// worker while it runs — keep it short; heavy work over the result
  /// belongs in SubmitStage.
  void SubmitAsync(ServeRequest request, Callback done);

  /// The work of a stage request, given the request's resolved search.
  using Stage = std::function<void(const ServeResponse& response)>;
  /// Receives a stage request's failure; its Stage then never runs.
  using Failure = std::function<void(const Status& status)>;

  /// Runs `stage` over the request's search result on a pool worker: the
  /// entry point for work too heavy for the caller's thread. The search
  /// resolves exactly as in SubmitAsync — result cache, single flight,
  /// admission, execution. Then:
  ///  - `stage` always runs on a pool worker, also on a cache hit; never
  ///    on the submitting thread.
  ///  - The request holds one admission slot from submission until its
  ///    stage returns, so the slot covers the wait for the pool and the
  ///    stage itself (and a cache miss's execution before them). If no
  ///    slot is free, `fail` gets kUnavailable synchronously, before
  ///    SubmitStage returns, and ServeMetrics::rejected counts it.
  ///  - The deadline is the request's own, or
  ///    Options::default_deadline_seconds if it has none. It is measured
  ///    from submission and checked when the stage is about to start;
  ///    past it, `fail` gets kDeadlineExceeded instead.
  ///  - A stage that has started runs to completion: there is no
  ///    cancellation hook.
  ///  - `response.result` was computed against `response.snapshot`, the
  ///    snapshot the request was admitted with, and carries its full
  ///    score vector. A cache entry retained from an older version
  ///    (Options::result_cache_versions), or one whose vector the byte
  ///    budget dropped (kScoreCacheBytes), is never used; the search
  ///    executes, or coalesces, on the admitted snapshot instead, and
  ///    the execution restores the entry's vector.
  /// Exactly one of `stage` and `fail` runs. Search errors reach `fail`
  /// on the pool worker that resolved the search.
  void SubmitStage(ServeRequest request, Stage stage, Failure fail);

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
  /// Rates (qps) are derived from this one cut.
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

  /// How one request's outcome is delivered: a promise (Submit), a
  /// callback (SubmitAsync), or a stage and its failure sink
  /// (SubmitStage). Exactly one delivery happens per request.
  struct Completion {
    std::optional<std::promise<ResponseOr>> promise;
    Callback callback;
    Stage stage;
    Failure fail;
    /// When a stage may no longer start (SubmitStage).
    Clock::time_point deadline = Clock::time_point::max();

    /// A stage request holds one admission slot from admission until its
    /// stage (or failure) has run; see RunStage.
    bool is_stage() const { return stage != nullptr; }

    /// Delivers to a promise or callback; stage requests go through
    /// DispatchStage instead.
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

  /// Completed result-cache entry (LRU list node). `result` is replaced
  /// by a score-less copy when the byte budget drops its vector.
  struct CachedResult {
    std::string key;
    uint64_t snapshot_version = 0;
    std::shared_ptr<const core::SearchResult> result;
  };

  /// The version-independent part of the cache key: numeric options
  /// fingerprint + term-sorted (term, weight) pairs. The canonical key is
  /// "v<version>|" + suffix; the prefix is kept separable so the cache
  /// lookup can probe the retained older versions too (see
  /// Options::result_cache_versions).
  static std::string RequestKeySuffix(const text::QueryVector& query,
                                      const core::SearchOptions& options);

  /// Probes the result cache for `suffix` under the retained snapshot
  /// versions, newest first (caller holds mu_). A stage probes only the
  /// current version and takes no entry whose score vector was dropped.
  /// On a hit promotes the entry, fills `hit`, and returns true.
  bool LookupCacheLocked(const std::string& suffix, bool stage,
                         ServeResponse& hit) ORX_REQUIRES(mu_);

  /// Shared body of Submit/SubmitAsync: admission, coalescing, cache
  /// lookup, and dispatch for one request whose delivery target is
  /// already packaged in `completion`.
  void SubmitInternal(ServeRequest request, CompletionPtr completion);

  void Execute(std::string key, ServeRequest request,
               std::shared_ptr<const ServeSnapshot> snapshot,
               uint64_t version, core::SearchOptions options,
               CompletionPtr completion, Clock::time_point submit_time,
               Clock::time_point deadline, bool has_deadline);

  /// Completes one admitted execution: error counters, slot release
  /// (a stage leader keeps its slot for its stage), single-flight waiter
  /// resolution, result caching, and fulfillment.
  void FinishExecution(const std::string& key,
                       const std::shared_ptr<const ServeSnapshot>& snapshot,
                       uint64_t version, StatusOr<core::SearchResult> result,
                       const CompletionPtr& completion,
                       Clock::time_point submit_time, double queue_seconds);

  /// Delivers a response and records the completion metrics.
  void Fulfill(const CompletionPtr& completion, ResponseOr response,
               Clock::time_point submit_time);

  /// Hands a stage request its resolved search: a failure goes to `fail`
  /// on this thread, a response to RunStage on a pool worker.
  void DispatchStage(const CompletionPtr& completion, ResponseOr response);

  /// Pool task of one stage: the deadline check, then the stage (or its
  /// failure), then the release of the request's admission slot.
  void RunStage(const CompletionPtr& completion,
                const ServeResponse& response);

  /// Returns one admission slot.
  void ReleaseSlot();

  /// Inserts a completed result into the LRU, or restores the score
  /// vector of the entry already there, then enforces both cache bounds
  /// (caller holds mu_). The cache's references to evicted results and
  /// dropped vectors move to `released`, for the caller to free after
  /// mu_ is released.
  void CacheResultLocked(
      const std::string& key, uint64_t version,
      std::shared_ptr<const core::SearchResult> result,
      std::vector<std::shared_ptr<const core::SearchResult>>& released)
      ORX_REQUIRES(mu_);

  const Options options_;
  const Clock::time_point start_time_;

  mutable Mutex mu_{"search_service.mu"};
  std::shared_ptr<const ServeSnapshot> snapshot_ ORX_GUARDED_BY(mu_);
  uint64_t version_ ORX_GUARDED_BY(mu_) = 1;
  size_t pending_ ORX_GUARDED_BY(mu_) = 0;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_
      ORX_GUARDED_BY(mu_);
  std::list<CachedResult> lru_ ORX_GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<std::string, std::list<CachedResult>::iterator> cached_
      ORX_GUARDED_BY(mu_);
  /// Bytes of the score vectors lru_'s entries hold.
  size_t score_bytes_ ORX_GUARDED_BY(mu_) = 0;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> tier_exact_{0};
  std::atomic<uint64_t> tier_cached_{0};
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
