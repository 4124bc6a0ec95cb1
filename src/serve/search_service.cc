#include "serve/search_service.h"

#include <algorithm>
#include <charconv>
#include <system_error>
#include <utility>

#include "common/check.h"

namespace orx::serve {
namespace {

double ToSeconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Appends `value`'s shortest round-trip text and a '|'. Distinct doubles
// never share a text, so the key never merges two requests. std::to_chars
// rather than snprintf: the key is built under the service mutex.
void AppendDouble(std::string& out, double value) {
  char buf[32];  // the longest is 24: "-2.2250738585072014e-308"
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  ORX_CHECK(ec == std::errc());
  out.append(buf, end);
  out += '|';
}

// "v<version>|": the key prefix that scopes cache entries to one
// snapshot version. Kept separate from the options/query suffix so the
// cache lookup can probe retained older versions by re-prefixing the
// same suffix.
std::string VersionPrefix(uint64_t version) {
  std::string prefix = "v";
  prefix += std::to_string(version);
  prefix += "|";
  return prefix;
}

// The numeric-options fingerprint of RequestKeySuffix, which appends the
// normalized query to it.
void AppendOptionsKey(std::string& key, const core::SearchOptions& options) {
  key += "m";
  key += std::to_string(static_cast<int>(options.mode));
  key += "|k";
  key += std::to_string(options.k);
  key += "|t";
  key += options.result_type.has_value()
             ? std::to_string(*options.result_type)
             : std::string("-");
  key += "|w";
  key += options.use_warm_start ? "1" : "0";
  key += "|";
  AppendDouble(key, options.objectrank.damping);
  AppendDouble(key, options.objectrank.epsilon);
  key += std::to_string(options.objectrank.max_iterations);
  key += "|";
  key += std::to_string(options.objectrank.num_threads);
  key += "|K";
  key += std::to_string(static_cast<int>(options.objectrank.kernel));
  key += "|";
  AppendDouble(key, options.bm25.k1);
  AppendDouble(key, options.bm25.b);
  AppendDouble(key, options.bm25.k3);
  // The resolved tier shapes the result (a kExact request must not be
  // answered by a rank-cache hit), so it splits the cache keyspace.
  key += "T";
  key += std::to_string(static_cast<int>(options.tier));
  key += "|";
}

// What a result-cache entry is charged against kScoreCacheBytes.
size_t ScoreBytes(const core::SearchResult& result) {
  return result.scores.size() * sizeof(double);
}

// Every field of `result` but its score vector: what a cache entry keeps
// once the byte budget dropped the vector.
std::shared_ptr<const core::SearchResult> WithoutScores(
    const core::SearchResult& result) {
  auto copy = std::make_shared<core::SearchResult>();
  copy->top = result.top;
  copy->iterations = result.iterations;
  copy->converged = result.converged;
  copy->base_set_size = result.base_set_size;
  copy->seconds = result.seconds;
  copy->tier_used = result.tier_used;
  copy->error_bound = result.error_bound;
  copy->cache_miss_reason = result.cache_miss_reason;
  return copy;
}

}  // namespace

std::string SearchService::RequestKeySuffix(
    const text::QueryVector& query, const core::SearchOptions& options) {
  std::string key;
  key.reserve(64 + query.size() * 24);
  AppendOptionsKey(key, options);
  // Normalized query: (term, weight) pairs sorted by term, so the key is
  // insensitive to keyword order (the scores are — the base set is a sum
  // over terms).
  std::vector<size_t> order(query.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return query.terms()[a] < query.terms()[b];
  });
  for (size_t i : order) {
    key += query.terms()[i];
    key += '=';
    AppendDouble(key, query.weights()[i]);
  }
  return key;
}

int SearchService::CapIntraQueryThreads(int requested, size_t pool_workers) {
  const size_t hardware = ThreadPool::HardwareThreads();
  const int cap = static_cast<int>(
      std::max<size_t>(1, hardware / std::max<size_t>(1, pool_workers)));
  return std::clamp(requested, 1, cap);
}

SearchService::SearchService(std::shared_ptr<const ServeSnapshot> snapshot,
                             Options options)
    : options_(options),
      start_time_(Clock::now()),
      snapshot_(std::move(snapshot)) {
  ORX_CHECK_MSG(snapshot_ != nullptr && snapshot_->Complete(),
                "SearchService needs a complete snapshot");
  ORX_CHECK_MSG(options_.max_batch_size == 1 && !options_.enable_tier_policy,
                "micro-batching and the tier policy are deleted; leave "
                "max_batch_size and enable_tier_policy at their defaults");
  pool_ = std::make_unique<ThreadPool>(options_.num_threads);
}

SearchService::~SearchService() {
  // Drain before any other member dies: tasks touch the maps and metrics.
  // Wait() first, with pool_ still set: a finishing execution may submit
  // its stage as a further task.
  pool_->Wait();
  pool_.reset();
}

std::future<StatusOr<ServeResponse>> SearchService::Submit(
    ServeRequest request) {
  auto completion = std::make_shared<Completion>();
  completion->promise.emplace();
  std::future<ResponseOr> future = completion->promise->get_future();
  SubmitInternal(std::move(request), std::move(completion));
  return future;
}

void SearchService::SubmitAsync(ServeRequest request, Callback done) {
  auto completion = std::make_shared<Completion>();
  completion->callback = std::move(done);
  SubmitInternal(std::move(request), std::move(completion));
}

void SearchService::SubmitStage(ServeRequest request, Stage stage,
                                Failure fail) {
  auto completion = std::make_shared<Completion>();
  completion->stage = std::move(stage);
  completion->fail = std::move(fail);
  SubmitInternal(std::move(request), std::move(completion));
}

void SearchService::SubmitInternal(ServeRequest request,
                                   CompletionPtr completion) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const Clock::time_point submit_time = Clock::now();

  double deadline_seconds = request.deadline_seconds;
  if (deadline_seconds == 0.0) {
    deadline_seconds = options_.default_deadline_seconds;
  }
  const bool has_deadline = deadline_seconds > 0.0;
  const Clock::time_point deadline =
      has_deadline
          ? submit_time + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(deadline_seconds))
          : Clock::time_point::max();
  completion->deadline = deadline;

  enum class Action { kHit, kCoalesce, kReject, kLead };
  Action action;
  ServeResponse hit;
  std::shared_ptr<const ServeSnapshot> snap;
  uint64_t version = 0;
  core::SearchOptions options;
  std::string key;
  {
    MutexLock lock(mu_);
    snap = snapshot_;
    version = version_;
    options =
        request.options.has_value() ? *request.options : snap->default_options;
    // Threading contract: a request may only parallelize its power
    // iteration within the machine share its execution slot represents.
    options.objectrank.num_threads = CapIntraQueryThreads(
        options.objectrank.num_threads, pool_->num_threads());
    if (request.k != 0) options.k = request.k;
    // No top list is longer than the graph, so every k past the node
    // count asks for the same result: clamped before the key is built,
    // such requests share one execution and one cache entry.
    options.k = std::min(options.k,
                         std::max<size_t>(1, snap->data->num_nodes()));
    // The per-request tier hint overrides the options' tier. Resolved
    // BEFORE the key is computed — the tier is part of the keyspace.
    if (request.tier != core::SearchTier::kAuto) {
      options.tier = request.tier;
    }
    const std::string suffix = RequestKeySuffix(request.query, options);
    key = VersionPrefix(version) + suffix;

    const bool stage = completion->is_stage();
    const bool cached = LookupCacheLocked(suffix, stage, hit);
    const auto flight = cached ? flights_.end() : flights_.find(key);
    const bool executes = !cached && flight == flights_.end();
    // An execution takes an admission slot, and so does a stage — one
    // slot, which also covers the execution a stage's cache miss leads.
    if ((stage || executes) && pending_ >= options_.max_pending) {
      action = Action::kReject;
    } else if (cached) {
      if (stage) ++pending_;
      hit.snapshot = snap;
      action = Action::kHit;
    } else if (!executes) {
      if (stage) ++pending_;
      // Count the coalesce *before* the waiter is published (still under
      // mu_): the leader may deliver this waiter's completion the moment
      // the lock drops, and a metrics snapshot taken then must already
      // see the coalesced counter — otherwise `completed` can transiently
      // exceed `cache_hits + coalesced + executed` (see Snapshot()).
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      flight->second->waiters.push_back(Waiter{completion, submit_time});
      action = Action::kCoalesce;
    } else {
      ++pending_;
      flights_.emplace(key, std::make_shared<Flight>());
      action = Action::kLead;
    }
  }

  switch (action) {
    case Action::kHit:
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      Fulfill(completion, std::move(hit), submit_time);
      break;
    case Action::kCoalesce:
      break;  // counted under mu_ above; the leader fulfills us
    case Action::kReject: {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      Status unavailable = UnavailableError(
          "admission queue full (" + std::to_string(options_.max_pending) +
          " executions pending)");
      if (completion->is_stage()) {
        completion->fail(unavailable);
      } else {
        completion->Deliver(std::move(unavailable));
      }
      break;
    }
    case Action::kLead:
      pool_->Submit([this, key = std::move(key), request = std::move(request),
                     snap = std::move(snap), version, options, completion,
                     submit_time, deadline, has_deadline]() mutable {
        Execute(std::move(key), std::move(request), std::move(snap), version,
                std::move(options), std::move(completion), submit_time,
                deadline, has_deadline);
      });
      break;
  }
}

StatusOr<ServeResponse> SearchService::Search(ServeRequest request) {
  return Submit(std::move(request)).get();
}

void SearchService::Execute(std::string key, ServeRequest request,
                            std::shared_ptr<const ServeSnapshot> snapshot,
                            uint64_t version, core::SearchOptions options,
                            CompletionPtr completion,
                            Clock::time_point submit_time,
                            Clock::time_point deadline, bool has_deadline) {
  const Clock::time_point start = Clock::now();
  const double queue_seconds = ToSeconds(start - submit_time);

  StatusOr<core::SearchResult> result =
      Status(StatusCode::kInternal, "unset");
  if (has_deadline && start >= deadline) {
    result = DeadlineExceededError("deadline expired while queued (" +
                                   std::to_string(queue_seconds) + "s)");
  } else {
    if (has_deadline) {
      // Chain the deadline onto any caller-supplied hook; either trips
      // the cooperative cancellation in the power iteration.
      std::function<bool()> caller_cancel =
          std::move(options.objectrank.cancel);
      options.objectrank.cancel = [deadline, caller_cancel]() {
        return Clock::now() >= deadline ||
               (caller_cancel && caller_cancel());
      };
    }
    // A Searcher is one session's worth of mutable warm-start state, so
    // each execution gets a fresh one on the stack; the graphs, corpus,
    // and rank cache it reads are shared, immutable snapshot members.
    core::Searcher searcher(*snapshot->data, *snapshot->authority,
                            *snapshot->corpus);
    if (snapshot->rank_cache != nullptr) {
      searcher.AttachRankCache(snapshot->rank_cache.get());
    }
    if (snapshot->fused_cache != nullptr) {
      // Every request reuses the snapshot's materialized SpMV layouts
      // instead of resolving rates per edge per iteration.
      searcher.AttachFusedCache(snapshot->fused_cache);
    }
    result = searcher.Search(request.query, snapshot->rates, options);
  }

  FinishExecution(key, snapshot, version, std::move(result), completion,
                  submit_time, queue_seconds);
}

void SearchService::FinishExecution(
    const std::string& key,
    const std::shared_ptr<const ServeSnapshot>& snapshot, uint64_t version,
    StatusOr<core::SearchResult> result, const CompletionPtr& completion,
    Clock::time_point submit_time, double queue_seconds) {
  executed_.fetch_add(1, std::memory_order_relaxed);
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kDeadlineExceeded) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    } else {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    // Tier accounting keys on what actually answered (tier_used): a
    // kAuto request the cache declined lands under exact, and its miss
    // reason is counted below.
    if (result->tier_used == core::SearchTier::kCached) {
      tier_cached_.fetch_add(1, std::memory_order_relaxed);
      tier_cached_latency_.Record(result->seconds);
    } else {
      tier_exact_.fetch_add(1, std::memory_order_relaxed);
      tier_exact_latency_.Record(result->seconds);
    }
    const auto reason = static_cast<size_t>(result->cache_miss_reason);
    if (reason != 0 && reason < miss_reasons_.size()) {
      miss_reasons_[reason].fetch_add(1, std::memory_order_relaxed);
    }
  }

  // One immutable copy of the result, shared by the cache, the leader,
  // and every waiter.
  std::shared_ptr<const core::SearchResult> shared;
  if (result.ok()) {
    shared = std::make_shared<const core::SearchResult>(std::move(*result));
  }

  std::vector<Waiter> waiters;
  // The cache's dropped references; the last one may free an n-entry
  // vector, which must not happen while every request waits on mu_.
  std::vector<std::shared_ptr<const core::SearchResult>> released;
  {
    MutexLock lock(mu_);
    // A stage leader's slot stays taken: its stage runs under it next.
    if (!completion->is_stage()) --pending_;
    if (auto it = flights_.find(key); it != flights_.end()) {
      waiters = std::move(it->second->waiters);
      flights_.erase(it);
    }
    // Cache any result whose version is still inside the retention
    // window: a result computed against the previous snapshot can keep
    // serving hits until retention slides past it. Versions a concurrent
    // swap already aged out stay uncached — their keyspace is dead.
    const uint64_t keep =
        std::max<uint64_t>(1, options_.result_cache_versions);
    if (shared != nullptr && version <= version_ && version_ - version < keep) {
      CacheResultLocked(key, version, shared, released);
    }
  }

  if (shared != nullptr) {
    ServeResponse response;
    response.result = shared;
    response.snapshot = snapshot;
    response.snapshot_version = version;
    response.queue_seconds = queue_seconds;
    Fulfill(completion, std::move(response), submit_time);
    // Waiters share the leader's key, hence its version and snapshot.
    for (Waiter& w : waiters) {
      ServeResponse echoed;
      echoed.result = shared;
      echoed.snapshot = snapshot;
      echoed.coalesced = true;
      echoed.snapshot_version = version;
      Fulfill(w.completion, std::move(echoed), w.submit_time);
    }
  } else {
    Fulfill(completion, result.status(), submit_time);
    for (Waiter& w : waiters) {
      Fulfill(w.completion, result.status(), w.submit_time);
    }
  }
}

void SearchService::Fulfill(const CompletionPtr& completion,
                            ResponseOr response,
                            Clock::time_point submit_time) {
  const double total = ToSeconds(Clock::now() - submit_time);
  if (response.ok()) response->total_seconds = total;
  // Metrics first: a caller unblocked by Deliver must already see this
  // completion in Snapshot(). The release pairs with Snapshot()'s acquire
  // load of completed_: every action counter (cache_hits_, coalesced_,
  // executed_, rejected_) incremented before this line is visible to a
  // snapshot that observes this completion, so the invariant
  //   completed <= cache_hits + coalesced + executed
  // holds in every cut.
  latency_.Record(total);
  completed_.fetch_add(1, std::memory_order_release);
  if (completion->is_stage()) {
    DispatchStage(completion, std::move(response));
  } else {
    completion->Deliver(std::move(response));
  }
}

void SearchService::DispatchStage(const CompletionPtr& completion,
                                  ResponseOr response) {
  if (!response.ok()) {
    completion->fail(response.status());
    ReleaseSlot();
    return;
  }
  pool_->Submit([this, completion, response = std::move(*response)] {
    RunStage(completion, response);
  });
}

void SearchService::RunStage(const CompletionPtr& completion,
                             const ServeResponse& response) {
  if (Clock::now() >= completion->deadline) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    completion->fail(
        DeadlineExceededError("deadline expired before the stage started"));
  } else {
    completion->stage(response);
  }
  ReleaseSlot();
}

void SearchService::ReleaseSlot() {
  MutexLock lock(mu_);
  --pending_;
}

bool SearchService::LookupCacheLocked(const std::string& suffix, bool stage,
                                      ServeResponse& hit) {
  // Probe newest-first so a request always prefers the freshest retained
  // result for its query; older versions only answer when the current one
  // has no entry yet (the window right after a hot swap). A stage only
  // takes a result computed against the snapshot it will run on, so it
  // never probes the versions retained behind it.
  const uint64_t keep =
      stage ? 1 : std::max<uint64_t>(1, options_.result_cache_versions);
  for (uint64_t back = 0; back < keep && back < version_; ++back) {
    const std::string probe = VersionPrefix(version_ - back) + suffix;
    if (auto it = cached_.find(probe); it != cached_.end()) {
      // A plain search reads only the top list; a stage needs the vector.
      if (stage && it->second->result->scores.empty()) return false;
      lru_.splice(lru_.begin(), lru_, it->second);  // mark most recent
      hit.result = it->second->result;
      hit.cache_hit = true;
      hit.snapshot_version = it->second->snapshot_version;
      return true;
    }
  }
  return false;
}

void SearchService::CacheResultLocked(
    const std::string& key, uint64_t version,
    std::shared_ptr<const core::SearchResult> result,
    std::vector<std::shared_ptr<const core::SearchResult>>& released) {
  if (options_.result_cache_entries == 0) return;
  if (auto it = cached_.find(key); it != cached_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    // A coalesced burst already cached this key. If the budget has since
    // dropped the entry's vector, this execution (a stage's) restores it.
    CachedResult& entry = *it->second;
    if (!entry.result->scores.empty()) return;
    score_bytes_ += ScoreBytes(*result);
    released.push_back(std::exchange(entry.result, std::move(result)));
  } else {
    score_bytes_ += ScoreBytes(*result);
    lru_.push_front(CachedResult{key, version, std::move(result)});
    cached_[key] = lru_.begin();
    while (lru_.size() > options_.result_cache_entries) {
      CachedResult& oldest = lru_.back();
      score_bytes_ -= ScoreBytes(*oldest.result);
      released.push_back(std::move(oldest.result));
      cached_.erase(oldest.key);
      lru_.pop_back();
    }
  }
  // Past the byte budget, the least recently used entries that hold a
  // vector drop it. The shared result is never mutated, only replaced by
  // a score-less copy; a response already handed out keeps its vector
  // alive by refcount.
  for (auto it = lru_.rbegin();
       score_bytes_ > kScoreCacheBytes && it != lru_.rend(); ++it) {
    const size_t bytes = ScoreBytes(*it->result);
    if (bytes == 0) continue;
    score_bytes_ -= bytes;
    released.push_back(std::exchange(it->result, WithoutScores(*it->result)));
  }
}

void SearchService::SwapSnapshot(
    std::shared_ptr<const ServeSnapshot> snapshot) {
  ORX_CHECK_MSG(snapshot != nullptr && snapshot->Complete(),
                "SwapSnapshot needs a complete snapshot");
  // Declared before the lock, so the evicted results are freed after mu_
  // is released.
  std::vector<std::shared_ptr<const core::SearchResult>> released;
  MutexLock lock(mu_);
  snapshot_ = std::move(snapshot);
  ++version_;
  // Evict only the entries that slid out of the retention window; the
  // rest keep serving (slightly stale) hits, so a steady read workload
  // doesn't pay a full cold cache on every publication.
  const uint64_t keep = std::max<uint64_t>(1, options_.result_cache_versions);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->snapshot_version + keep <= version_) {
      score_bytes_ -= ScoreBytes(*it->result);
      released.push_back(std::move(it->result));
      cached_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

std::shared_ptr<const ServeSnapshot> SearchService::snapshot() const {
  MutexLock lock(mu_);
  return snapshot_;
}

uint64_t SearchService::snapshot_version() const {
  MutexLock lock(mu_);
  return version_;
}

ServeMetrics SearchService::Snapshot() const {
  ServeMetrics m;
  // completed_ is read FIRST, with acquire: it is the publication counter
  // (incremented with release in Fulfill, after the action counters).
  // Reading it before the others guarantees every completion this
  // snapshot counts has its cache-hit/coalesce/execute increment already
  // visible, so `completed <= cache_hits + coalesced + executed` and
  // `completed <= submitted` hold in every snapshot — the counters can
  // only read *ahead* of the completed cut, never behind it.
  m.completed = completed_.load(std::memory_order_acquire);
  m.submitted = submitted_.load(std::memory_order_relaxed);
  m.rejected = rejected_.load(std::memory_order_relaxed);
  m.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  m.coalesced = coalesced_.load(std::memory_order_relaxed);
  m.executed = executed_.load(std::memory_order_relaxed);
  m.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  m.failed = failed_.load(std::memory_order_relaxed);
  m.tier_exact = tier_exact_.load(std::memory_order_relaxed);
  m.tier_cached = tier_cached_.load(std::memory_order_relaxed);
  using core::CacheMissReason;
  const auto miss = [&](CacheMissReason r) {
    return miss_reasons_[static_cast<size_t>(r)].load(
        std::memory_order_relaxed);
  };
  m.miss_no_cache = miss(CacheMissReason::kNoCache);
  m.miss_rates_mismatch = miss(CacheMissReason::kRatesMismatch);
  m.miss_bm25_mismatch = miss(CacheMissReason::kBm25Mismatch);
  m.miss_missing_terms = miss(CacheMissReason::kMissingTerms);
  m.miss_error_budget = miss(CacheMissReason::kErrorBudget);
  m.tier_exact_p50 = tier_exact_latency_.Percentile(50);
  m.tier_exact_p99 = tier_exact_latency_.Percentile(99);
  m.tier_cached_p50 = tier_cached_latency_.Percentile(50);
  m.tier_cached_p99 = tier_cached_latency_.Percentile(99);
  m.uptime_seconds = ToSeconds(Clock::now() - start_time_);
  m.qps = m.uptime_seconds > 0.0
              ? static_cast<double>(m.completed) / m.uptime_seconds
              : 0.0;
  m.latency_mean = latency_.MeanSeconds();
  m.latency_p50 = latency_.Percentile(50);
  m.latency_p95 = latency_.Percentile(95);
  m.latency_p99 = latency_.Percentile(99);
  return m;
}

}  // namespace orx::serve
