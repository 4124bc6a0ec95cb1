#include "serve/search_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "datasets/dblp_generator.h"
#include "serve/snapshot.h"
#include "serve_gate.h"
#include "text/query.h"

namespace orx::serve {
namespace {

/// Builds a snapshot over a freshly generated tiny DBLP dataset; the
/// aliasing shared_ptrs keep the dataset alive for the snapshot's life.
std::shared_ptr<const ServeSnapshot> MakeDblpSnapshot(uint32_t papers,
                                                      uint64_t seed) {
  auto owner = std::make_shared<datasets::DblpDataset>(datasets::GenerateDblp(
      datasets::DblpGeneratorConfig::Tiny(papers, seed)));
  graph::TransferRates rates = datasets::DblpGroundTruthRates(
      owner->dataset.schema(), owner->types);
  return std::make_shared<ServeSnapshot>(SnapshotFromOwner(
      owner, owner->dataset.data(), owner->dataset.authority(),
      owner->dataset.corpus(), std::move(rates)));
}

/// The `count` most frequent corpus terms — guaranteed non-empty base
/// sets for query workloads.
std::vector<std::string> TopTerms(const text::Corpus& corpus, size_t count) {
  std::vector<std::pair<uint32_t, std::string>> by_df;
  for (text::TermId t = 0; t < corpus.vocab_size(); ++t) {
    by_df.emplace_back(corpus.Df(t), corpus.TermString(t));
  }
  std::sort(by_df.begin(), by_df.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<std::string> terms;
  for (size_t i = 0; i < by_df.size() && terms.size() < count; ++i) {
    terms.push_back(by_df[i].second);
  }
  return terms;
}

ServeRequest MakeRequest(const std::string& query_text) {
  ServeRequest request;
  request.query = text::QueryVector(text::ParseQuery(query_text));
  return request;
}

/// Reference result: what a bare single-session Searcher computes for the
/// snapshot's defaults.
core::SearchResult DirectSearch(const ServeSnapshot& snap,
                                const std::string& query_text) {
  core::Searcher searcher(*snap.data, *snap.authority, *snap.corpus);
  if (snap.rank_cache != nullptr) {
    searcher.AttachRankCache(snap.rank_cache.get());
  }
  text::QueryVector query(text::ParseQuery(query_text));
  auto result = searcher.Search(query, snap.rates, snap.default_options);
  EXPECT_TRUE(result.ok()) << result.status();
  return *result;
}

/// Runs a no-op stage on `query_text` and returns the response it was
/// handed (an empty one, after a test failure, if the stage failed).
ServeResponse StagedResponse(SearchService& service,
                             const std::string& query_text) {
  std::promise<ServeResponse> staged;
  auto future = staged.get_future();
  service.SubmitStage(
      MakeRequest(query_text),
      [&staged](const ServeResponse& response) { staged.set_value(response); },
      [&staged](const Status& status) {
        ADD_FAILURE() << status;
        staged.set_value(ServeResponse{});
      });
  return future.get();
}

/// A snapshot whose score vectors outgrow SearchService::kScoreCacheBytes
/// long before the default entry bound: 30,600 nodes, so the budget
/// holds 68 vectors against 512 entries.
std::shared_ptr<const ServeSnapshot> MakeBudgetSnapshot() {
  return MakeDblpSnapshot(20000, 31);
}

/// How many of `snap`'s score vectors fit SearchService::kScoreCacheBytes.
size_t VectorsInBudget(const ServeSnapshot& snap) {
  return SearchService::kScoreCacheBytes /
         (snap.data->num_nodes() * sizeof(double));
}

/// Waits up to five seconds for `result` to be freed. The worker that
/// completed a request lets go of the results the cache released just
/// after it delivered the response.
bool Expires(const std::weak_ptr<const core::SearchResult>& result) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!result.expired()) {
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(SearchServiceTest, ConcurrentSubmitsMatchSequentialResults) {
  auto snap = MakeDblpSnapshot(250, 3);
  const std::vector<std::string> terms = TopTerms(*snap->corpus, 12);
  ASSERT_GE(terms.size(), 8u);

  std::unordered_map<std::string, core::SearchResult> reference;
  for (const std::string& t : terms) reference[t] = DirectSearch(*snap, t);

  SearchService::Options options;
  options.num_threads = 4;
  SearchService service(snap, options);
  std::vector<std::future<StatusOr<ServeResponse>>> futures;
  std::vector<std::string> submitted;
  for (int round = 0; round < 4; ++round) {
    for (const std::string& t : terms) {
      futures.push_back(service.Submit(MakeRequest(t)));
      submitted.push_back(t);
    }
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    auto response = futures[i].get();
    ASSERT_TRUE(response.ok()) << response.status();
    const core::SearchResult& expected = reference[submitted[i]];
    EXPECT_EQ(response->result->scores, expected.scores) << submitted[i];
    EXPECT_EQ(response->result->top, expected.top) << submitted[i];
  }
  const ServeMetrics m = service.Snapshot();
  EXPECT_EQ(m.submitted, futures.size());
  EXPECT_EQ(m.completed, futures.size());
  EXPECT_EQ(m.rejected, 0u);
  // 12 unique keys, 48 submissions: everything beyond the first
  // execution of a key is a hit or a coalesced waiter.
  EXPECT_EQ(m.executed + m.cache_hits + m.coalesced, futures.size());
  EXPECT_GE(m.executed, terms.size());
}

TEST(SearchServiceTest, SingleFlightCoalescesIdenticalQueries) {
  auto snap = MakeDblpSnapshot(200, 4);
  const std::string term = TopTerms(*snap->corpus, 1).at(0);
  SearchService::Options options;
  options.num_threads = 2;
  SearchService service(snap, options);

  auto gate = std::make_shared<Gate>();
  ServeRequest leader = MakeRequest(term);
  leader.options = GatedOptions(*snap, gate);
  auto leader_future = service.Submit(std::move(leader));
  gate->WaitUntilEntered();  // the execution is now parked in flight

  constexpr int kFollowers = 6;
  std::vector<std::future<StatusOr<ServeResponse>>> followers;
  for (int i = 0; i < kFollowers; ++i) {
    ServeRequest follower = MakeRequest(term);
    follower.options = GatedOptions(*snap, gate);  // identical key
    followers.push_back(service.Submit(std::move(follower)));
  }
  EXPECT_EQ(service.Snapshot().coalesced, static_cast<uint64_t>(kFollowers));

  gate->Open();
  auto led = leader_future.get();
  ASSERT_TRUE(led.ok()) << led.status();
  EXPECT_FALSE(led->coalesced);
  for (auto& f : followers) {
    auto response = f.get();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(response->coalesced);
    EXPECT_EQ(response->result->scores, led->result->scores);
  }
  const ServeMetrics m = service.Snapshot();
  EXPECT_EQ(m.executed, 1u);  // one power iteration served 7 requests
  EXPECT_EQ(m.coalesced, static_cast<uint64_t>(kFollowers));
  EXPECT_EQ(m.completed, static_cast<uint64_t>(kFollowers) + 1);
}

TEST(SearchServiceTest, AdmissionOverflowReturnsUnavailable) {
  auto snap = MakeDblpSnapshot(200, 5);
  const std::vector<std::string> terms = TopTerms(*snap->corpus, 3);
  ASSERT_GE(terms.size(), 3u);
  SearchService::Options options;
  options.num_threads = 1;
  options.max_pending = 2;
  SearchService service(snap, options);

  auto gate = std::make_shared<Gate>();
  ServeRequest blocker = MakeRequest(terms[0]);
  blocker.options = GatedOptions(*snap, gate);
  auto running = service.Submit(std::move(blocker));
  gate->WaitUntilEntered();  // occupies the only worker; pending = 1

  auto queued = service.Submit(MakeRequest(terms[1]));  // pending = 2
  auto rejected = service.Submit(MakeRequest(terms[2]));
  // The overflow future is fulfilled synchronously by Submit.
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(rejected.get().status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.Snapshot().rejected, 1u);

  gate->Open();
  EXPECT_TRUE(running.get().ok());
  EXPECT_TRUE(queued.get().ok());
  const ServeMetrics m = service.Snapshot();
  EXPECT_EQ(m.executed, 2u);
  EXPECT_EQ(m.completed, 2u);  // the rejection is not a completion
}

TEST(SearchServiceTest, DeadlineExpiredInQueueFailsWithoutExecuting) {
  auto snap = MakeDblpSnapshot(200, 6);
  const std::string term = TopTerms(*snap->corpus, 1).at(0);
  SearchService service(snap, SearchService::Options{});

  ServeRequest request = MakeRequest(term);
  request.deadline_seconds = 1e-7;  // expired by the time a worker starts
  auto response = service.Search(std::move(request));
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.Snapshot().deadline_exceeded, 1u);
}

TEST(SearchServiceTest, MidIterationCancellationSurfacesDeadlineExceeded) {
  auto snap = MakeDblpSnapshot(200, 6);
  const std::string term = TopTerms(*snap->corpus, 1).at(0);
  SearchService service(snap, SearchService::Options{});

  // A caller-supplied hook that trips during the power iteration; the
  // service must return kDeadlineExceeded and count it.
  auto calls = std::make_shared<std::atomic<int>>(0);
  ServeRequest request = MakeRequest(term);
  request.options = snap->default_options;
  request.options->objectrank.cancel = [calls] {
    return calls->fetch_add(1) >= 2;
  };
  auto response = service.Search(std::move(request));
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.Snapshot().deadline_exceeded, 1u);
  EXPECT_GE(calls->load(), 3);
}

TEST(SearchServiceTest, ResultCacheServesRepeatsWithoutExecution) {
  auto snap = MakeDblpSnapshot(200, 8);
  const std::string term = TopTerms(*snap->corpus, 1).at(0);
  SearchService service(snap, SearchService::Options{});

  auto first = service.Search(MakeRequest(term));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  auto second = service.Search(MakeRequest(term));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->result, first->result);  // shared, not copied

  // Keyword order must not defeat the normalized key.
  const std::string two_terms =
      TopTerms(*snap->corpus, 2).at(1) + " " + term;
  const std::string reversed = term + " " + TopTerms(*snap->corpus, 2).at(1);
  auto a = service.Search(MakeRequest(two_terms));
  ASSERT_TRUE(a.ok());
  auto b = service.Search(MakeRequest(reversed));
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->cache_hit);
  EXPECT_EQ(b->result->scores, a->result->scores);

  const ServeMetrics m = service.Snapshot();
  EXPECT_EQ(m.executed, 2u);
  EXPECT_EQ(m.cache_hits, 2u);
}

// The key must never merge two requests, however close: one ulp of
// damping, or of one term's weight, is another query. The key writes
// doubles as text, so this pins that the text of distinct doubles
// differs.
TEST(SearchServiceTest, CacheKeySeparatesAdjacentDoubles) {
  auto snap = MakeDblpSnapshot(200, 8);
  const std::vector<std::string> terms = TopTerms(*snap->corpus, 2);
  SearchService service(snap, SearchService::Options{});
  auto with_damping = [&](double damping) {
    ServeRequest request = MakeRequest(terms[0]);
    request.options = snap->default_options;
    request.options->objectrank.damping = damping;
    return request;
  };
  auto with_weight = [&](double weight) {
    ServeRequest request = MakeRequest(terms[0] + " " + terms[1]);
    request.query.SetWeight(terms[1], weight);
    return request;
  };
  auto cache_hit = [&](ServeRequest request) {
    auto response = service.Search(std::move(request));
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() && response->cache_hit;
  };
  const double damping_up = std::nextafter(0.85, 1.0);
  const double weight_up = std::nextafter(1.0, 2.0);

  EXPECT_FALSE(cache_hit(with_damping(0.85)));
  EXPECT_FALSE(cache_hit(with_damping(damping_up)));
  EXPECT_EQ(service.Snapshot().executed, 2u);
  EXPECT_FALSE(cache_hit(with_weight(1.0)));
  EXPECT_FALSE(cache_hit(with_weight(weight_up)));
  EXPECT_EQ(service.Snapshot().executed, 4u);

  EXPECT_TRUE(cache_hit(with_damping(0.85)));
  EXPECT_TRUE(cache_hit(with_damping(damping_up)));
  EXPECT_TRUE(cache_hit(with_weight(1.0)));
  EXPECT_TRUE(cache_hit(with_weight(weight_up)));
  const ServeMetrics m = service.Snapshot();
  EXPECT_EQ(m.executed, 4u);
  EXPECT_EQ(m.cache_hits, 4u);
}

TEST(SearchServiceTest, CacheOffExecutesEveryRequest) {
  auto snap = MakeDblpSnapshot(200, 8);
  const std::string term = TopTerms(*snap->corpus, 1).at(0);
  SearchService::Options options;
  options.result_cache_entries = 0;
  SearchService service(snap, options);

  for (int i = 0; i < 3; ++i) {
    auto response = service.Search(MakeRequest(term));
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response->cache_hit);
    EXPECT_FALSE(response->coalesced);
  }
  const ServeMetrics m = service.Snapshot();
  EXPECT_EQ(m.executed, 3u);
  EXPECT_EQ(m.cache_hits, 0u);
  EXPECT_EQ(m.coalesced, 0u);
}

TEST(SearchServiceTest, LruEvictsLeastRecentlyUsedEntry) {
  auto snap = MakeDblpSnapshot(200, 9);
  const std::vector<std::string> terms = TopTerms(*snap->corpus, 2);
  ASSERT_GE(terms.size(), 2u);
  SearchService::Options options;
  options.result_cache_entries = 1;
  SearchService service(snap, options);

  ASSERT_TRUE(service.Search(MakeRequest(terms[0])).ok());  // cache: A
  ASSERT_TRUE(service.Search(MakeRequest(terms[1])).ok());  // evicts A
  auto again = service.Search(MakeRequest(terms[0]));       // recompute
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->cache_hit);
  EXPECT_EQ(service.Snapshot().executed, 3u);
}

TEST(SearchServiceTest, SearchErrorsPropagateToTheFuture) {
  auto snap = MakeDblpSnapshot(200, 10);
  SearchService service(snap, SearchService::Options{});
  auto not_found = service.Search(MakeRequest("zzzzunknownkeyword"));
  EXPECT_EQ(not_found.status().code(), StatusCode::kNotFound);

  ServeRequest bad = MakeRequest(TopTerms(*snap->corpus, 1).at(0));
  bad.options = snap->default_options;
  bad.options->k = 0;
  EXPECT_EQ(service.Search(std::move(bad)).status().code(),
            StatusCode::kInvalidArgument);
  const ServeMetrics m = service.Snapshot();
  EXPECT_EQ(m.failed, 2u);
  EXPECT_EQ(m.deadline_exceeded, 0u);
}

TEST(SearchServiceTest, SnapshotSwapMidTrafficIsSeamless) {
  auto snap1 = MakeDblpSnapshot(220, 1);
  auto snap2 = MakeDblpSnapshot(220, 7);

  // Query terms present in both corpora so every request succeeds against
  // either snapshot.
  std::vector<std::string> terms;
  for (const std::string& t : TopTerms(*snap1->corpus, 30)) {
    for (text::TermId u = 0; u < snap2->corpus->vocab_size(); ++u) {
      if (snap2->corpus->TermString(u) == t && snap2->corpus->Df(u) > 0) {
        terms.push_back(t);
        break;
      }
    }
    if (terms.size() == 6) break;
  }
  ASSERT_GE(terms.size(), 4u);

  std::unordered_map<std::string, core::SearchResult> ref1, ref2;
  for (const std::string& t : terms) {
    ref1[t] = DirectSearch(*snap1, t);
    ref2[t] = DirectSearch(*snap2, t);
  }

  SearchService::Options options;
  options.num_threads = 4;
  // This test requires every post-swap response to be computed on (or
  // cached from) snapshot 2, so retained stale hits are off.
  options.result_cache_versions = 1;
  SearchService service(snap1, options);

  constexpr int kClients = 4;
  constexpr int kPerClient = 40;
  std::atomic<int> done{0};
  std::atomic<bool> swapped{false};
  std::atomic<int> new_version_responses{0};
  std::vector<std::thread> clients;
  std::atomic<bool> failed{false};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        // Each client pauses at its halfway point until the swap has
        // happened, so the second half of the traffic is guaranteed to
        // see snapshot 2 (the first half may still be in flight during
        // the swap — exactly the hot-reload scenario).
        if (i == kPerClient / 2) {
          while (!swapped.load()) std::this_thread::yield();
        }
        const std::string& term = terms[(c * 13 + i) % terms.size()];
        auto response = service.Search(MakeRequest(term));
        if (!response.ok()) {
          failed.store(true);
          continue;
        }
        const core::SearchResult& expected =
            response->snapshot_version == 1 ? ref1[term] : ref2[term];
        if (response->result->scores != expected.scores) failed.store(true);
        if (response->snapshot_version == 2) new_version_responses.fetch_add(1);
        done.fetch_add(1);
      }
    });
  }
  // Swap once traffic is flowing; in-flight requests finish on snapshot 1.
  while (done.load() < kClients * kPerClient / 8) std::this_thread::yield();
  service.SwapSnapshot(snap2);
  swapped.store(true);
  for (std::thread& t : clients) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(service.snapshot_version(), 2u);
  // Everything submitted after the swap ran (or was cached) on v2.
  EXPECT_GE(new_version_responses.load(), kClients * kPerClient / 2);
  EXPECT_EQ(service.Snapshot().completed,
            static_cast<uint64_t>(kClients * kPerClient));
}

TEST(SearchServiceTest, ResultCacheRetainsRecentVersionsAcrossSwap) {
  // Two snapshots over the identical dataset: only the version changes,
  // so a retained stale hit is observable purely via snapshot_version.
  auto snap1 = MakeDblpSnapshot(200, 21);
  auto snap2 = MakeDblpSnapshot(200, 21);
  const std::string term = TopTerms(*snap1->corpus, 1).at(0);
  SearchService::Options options;  // result_cache_versions = 2 (default)
  SearchService service(snap1, options);

  auto warm = service.Search(MakeRequest(term));
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_FALSE(warm->cache_hit);

  // One swap: the v1 entry is still inside the retention window and must
  // keep serving hits, reported against the version it was computed on —
  // the hit-rate does not fall off a cliff at every publication.
  service.SwapSnapshot(snap2);
  auto retained = service.Search(MakeRequest(term));
  ASSERT_TRUE(retained.ok()) << retained.status();
  EXPECT_TRUE(retained->cache_hit);
  EXPECT_EQ(retained->snapshot_version, 1u);
  EXPECT_EQ(retained->result->scores, warm->result->scores);

  // A second swap slides v1 out of the window; the same query must now
  // recompute against the current snapshot.
  service.SwapSnapshot(snap1);
  auto recomputed = service.Search(MakeRequest(term));
  ASSERT_TRUE(recomputed.ok()) << recomputed.status();
  EXPECT_FALSE(recomputed->cache_hit);
  EXPECT_EQ(recomputed->snapshot_version, 3u);

  const ServeMetrics m = service.Snapshot();
  EXPECT_EQ(m.executed, 2u);
  EXPECT_EQ(m.cache_hits, 1u);
}

TEST(SearchServiceTest, SnapshotAliasingKeepsOwnerAlive) {
  auto snap = MakeDblpSnapshot(200, 11);
  // MakeDblpSnapshot's owner went out of scope; only the aliasing
  // shared_ptrs keep the dataset alive. A query must still work.
  SearchService service(snap, SearchService::Options{});
  auto response = service.Search(MakeRequest(TopTerms(*snap->corpus, 1)[0]));
  EXPECT_TRUE(response.ok()) << response.status();
}

TEST(SearchServiceTest, MetricsReportLatencyAndQps) {
  auto snap = MakeDblpSnapshot(200, 12);
  SearchService service(snap, SearchService::Options{});
  const std::vector<std::string> terms = TopTerms(*snap->corpus, 4);
  for (const std::string& t : terms) {
    ASSERT_TRUE(service.Search(MakeRequest(t)).ok());
  }
  const ServeMetrics m = service.Snapshot();
  EXPECT_EQ(m.completed, terms.size());
  EXPECT_GT(m.latency_p50, 0.0);
  EXPECT_LE(m.latency_p50, m.latency_p99);
  EXPECT_GT(m.qps, 0.0);
  EXPECT_GT(m.uptime_seconds, 0.0);
  EXPECT_FALSE(m.ToString().empty());
}

TEST(SearchServiceTest, SubmitAsyncDeliversSameResponseAsFutures) {
  auto snap = MakeDblpSnapshot(200, 18);
  const std::string term = TopTerms(*snap->corpus, 1).at(0);
  SearchService service(snap, SearchService::Options{});
  const core::SearchResult expected = DirectSearch(*snap, term);

  std::promise<StatusOr<ServeResponse>> delivered;
  auto future = delivered.get_future();
  service.SubmitAsync(MakeRequest(term),
                      [&delivered](StatusOr<ServeResponse> response) {
                        delivered.set_value(std::move(response));
                      });
  auto response = future.get();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->result->scores, expected.scores);
  EXPECT_EQ(response->result->top, expected.top);
  EXPECT_FALSE(response->cache_hit);

  // The repeat resolves at Submit time: the callback runs synchronously
  // on the calling thread, before SubmitAsync returns.
  bool ran = false;
  service.SubmitAsync(MakeRequest(term),
                      [&ran, &expected](StatusOr<ServeResponse> response) {
                        ran = true;
                        ASSERT_TRUE(response.ok()) << response.status();
                        EXPECT_TRUE(response->cache_hit);
                        EXPECT_EQ(response->result->scores, expected.scores);
                      });
  EXPECT_TRUE(ran);
}

TEST(SearchServiceTest, SubmitAsyncRejectionRunsCallbackSynchronously) {
  auto snap = MakeDblpSnapshot(200, 18);
  const std::vector<std::string> terms = TopTerms(*snap->corpus, 2);
  ASSERT_GE(terms.size(), 2u);
  SearchService::Options options;
  options.num_threads = 1;
  options.max_pending = 1;
  SearchService service(snap, options);

  auto gate = std::make_shared<Gate>();
  ServeRequest blocker = MakeRequest(terms[0]);
  blocker.options = GatedOptions(*snap, gate);
  auto running = service.Submit(std::move(blocker));
  gate->WaitUntilEntered();  // the only admission slot is taken

  bool ran = false;
  service.SubmitAsync(MakeRequest(terms[1]),
                      [&ran](StatusOr<ServeResponse> response) {
                        ran = true;
                        EXPECT_EQ(response.status().code(),
                                  StatusCode::kUnavailable);
                      });
  EXPECT_TRUE(ran);  // rejection delivered before SubmitAsync returned
  EXPECT_EQ(service.Snapshot().rejected, 1u);

  gate->Open();
  EXPECT_TRUE(running.get().ok());
}

TEST(SearchServiceTest, SubmitAsyncCoalescedWaitersGetCallbacks) {
  auto snap = MakeDblpSnapshot(200, 19);
  const std::string term = TopTerms(*snap->corpus, 1).at(0);
  SearchService::Options options;
  options.num_threads = 2;
  SearchService service(snap, options);

  auto gate = std::make_shared<Gate>();
  ServeRequest leader = MakeRequest(term);
  leader.options = GatedOptions(*snap, gate);
  auto leader_future = service.Submit(std::move(leader));
  gate->WaitUntilEntered();

  constexpr int kFollowers = 4;
  std::atomic<int> coalesced_callbacks{0};
  std::vector<std::future<StatusOr<ServeResponse>>> followers;
  for (int i = 0; i < kFollowers; ++i) {
    auto delivered = std::make_shared<std::promise<StatusOr<ServeResponse>>>();
    followers.push_back(delivered->get_future());
    ServeRequest follower = MakeRequest(term);
    follower.options = GatedOptions(*snap, gate);  // identical key
    service.SubmitAsync(std::move(follower),
                        [delivered, &coalesced_callbacks](
                            StatusOr<ServeResponse> response) {
                          if (response.ok() && response->coalesced) {
                            coalesced_callbacks.fetch_add(1);
                          }
                          delivered->set_value(std::move(response));
                        });
  }
  gate->Open();
  ASSERT_TRUE(leader_future.get().ok());
  for (auto& f : followers) {
    auto response = f.get();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(response->coalesced);
  }
  EXPECT_EQ(coalesced_callbacks.load(), kFollowers);
  EXPECT_EQ(service.Snapshot().executed, 1u);
}

TEST(SearchServiceStageTest, StageNeverRunsOnTheSubmittingThread) {
  auto snap = MakeDblpSnapshot(200, 22);
  const std::string term = TopTerms(*snap->corpus, 1).at(0);
  SearchService service(snap, SearchService::Options{});
  const core::SearchResult expected = DirectSearch(*snap, term);

  // The first stage's search executes; the second's is a cache hit,
  // resolved on this thread at submit time. Both stages must still run
  // on a pool worker, over the shared result and the admitted snapshot.
  for (const bool expect_hit : {false, true}) {
    std::promise<std::thread::id> ran_on;
    auto future = ran_on.get_future();
    service.SubmitStage(
        MakeRequest(term),
        [&](const ServeResponse& response) {
          EXPECT_EQ(response.cache_hit, expect_hit);
          EXPECT_EQ(response.snapshot, snap);
          EXPECT_EQ(response.result->scores, expected.scores);
          ran_on.set_value(std::this_thread::get_id());
        },
        [&](const Status& status) {
          ADD_FAILURE() << status;
          ran_on.set_value(std::this_thread::get_id());
        });
    EXPECT_NE(future.get(), std::this_thread::get_id()) << expect_hit;
  }
  const ServeMetrics m = service.Snapshot();
  EXPECT_EQ(m.executed, 1u);
  EXPECT_EQ(m.cache_hits, 1u);
}

TEST(SearchServiceStageTest, StageNeverUsesAnEntryFromAnOlderVersion) {
  // The swap grows the graph. A plain search may still be answered from
  // the entry retained from version 1; a stage must get a result computed
  // on the snapshot it runs on, or its scores would not even match the
  // graph's node count.
  auto small = MakeDblpSnapshot(200, 21);
  auto grown = MakeDblpSnapshot(260, 21);
  ASSERT_GT(grown->data->num_nodes(), small->data->num_nodes());
  const std::string term = TopTerms(*small->corpus, 1).at(0);
  SearchService service(small, SearchService::Options{});
  ASSERT_TRUE(service.Search(MakeRequest(term)).ok());
  service.SwapSnapshot(grown);

  auto retained = service.Search(MakeRequest(term));
  ASSERT_TRUE(retained.ok()) << retained.status();
  EXPECT_TRUE(retained->cache_hit);
  EXPECT_EQ(retained->snapshot_version, 1u);
  EXPECT_EQ(retained->snapshot, grown);

  const ServeResponse response = StagedResponse(service, term);
  ASSERT_NE(response.result, nullptr);
  EXPECT_FALSE(response.cache_hit);
  EXPECT_EQ(response.snapshot_version, 2u);
  EXPECT_EQ(response.snapshot, grown);
  EXPECT_EQ(response.result->scores, DirectSearch(*grown, term).scores);
}

TEST(SearchServiceTest, ScoreVectorsStayWithinTheByteBudget) {
  auto snap = MakeBudgetSnapshot();
  SearchService::Options options;
  const size_t fit = VectorsInBudget(*snap);
  ASSERT_LT(4 * fit, options.result_cache_entries);
  const std::vector<std::string> terms = TopTerms(*snap->corpus, fit + 8);
  ASSERT_EQ(terms.size(), fit + 8);
  SearchService service(snap, options);

  // Sequential misses, so LRU order is submission order. Only a weak_ptr
  // outlives each response: a result stays alive only if the cache still
  // holds it.
  std::vector<std::weak_ptr<const core::SearchResult>> held;
  std::vector<core::SearchResult> first;  // score-less copies
  for (const std::string& t : terms) {
    auto response = service.Search(MakeRequest(t));
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_FALSE(response->cache_hit) << t;
    ASSERT_EQ(response->result->scores.size(), snap->data->num_nodes());
    held.push_back(response->result);
    core::SearchResult copy = *response->result;
    copy.scores = std::vector<double>();
    first.push_back(std::move(copy));
  }
  const size_t dropped = terms.size() - fit;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i < dropped) {
      EXPECT_TRUE(Expires(held[i])) << terms[i];
    } else {
      EXPECT_FALSE(held[i].expired()) << terms[i];
    }
  }
  const uint64_t executed = service.Snapshot().executed;
  EXPECT_EQ(executed, terms.size());

  // Bytes evicted no entry: a second pass is all hits with the first
  // pass's top lists, and only the newest `fit` still carry a vector.
  for (size_t i = 0; i < terms.size(); ++i) {
    auto response = service.Search(MakeRequest(terms[i]));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(response->cache_hit) << terms[i];
    const core::SearchResult& hit = *response->result;
    EXPECT_EQ(hit.top, first[i].top) << terms[i];
    EXPECT_EQ(hit.iterations, first[i].iterations) << terms[i];
    EXPECT_EQ(hit.base_set_size, first[i].base_set_size) << terms[i];
    EXPECT_EQ(hit.tier_used, first[i].tier_used) << terms[i];
    EXPECT_EQ(hit.scores.empty(), i < dropped) << terms[i];
  }
  EXPECT_EQ(service.Snapshot().executed, executed);
}

TEST(SearchServiceStageTest, StageOnADroppedVectorReexecutes) {
  auto snap = MakeBudgetSnapshot();
  const size_t fit = VectorsInBudget(*snap);
  const std::vector<std::string> terms = TopTerms(*snap->corpus, fit + 1);
  ASSERT_EQ(terms.size(), fit + 1);
  SearchService service(snap, SearchService::Options{});
  // terms[0] first: the `fit` newer vectors push its vector out.
  for (const std::string& t : terms) {
    ASSERT_TRUE(service.Search(MakeRequest(t)).ok()) << t;
  }
  const std::string& term = terms[0];
  const core::SearchResult expected = DirectSearch(*snap, term);

  // The first stage re-executes and restores the vector; the second hits.
  for (const bool expect_hit : {false, true}) {
    const uint64_t executed = service.Snapshot().executed;
    const ServeResponse response = StagedResponse(service, term);
    ASSERT_NE(response.result, nullptr);
    EXPECT_EQ(response.cache_hit, expect_hit);
    EXPECT_EQ(response.snapshot, snap);
    EXPECT_EQ(response.result->scores, expected.scores);
    EXPECT_EQ(service.Snapshot().executed, executed + (expect_hit ? 0 : 1));
  }
}

TEST(SearchServiceTest, MetricsSnapshotConsistentUnderLoad) {
  // Regression for non-atomic counter sampling: a snapshot taken
  // mid-burst used to show `completed` ahead of the action counters
  // (each completion incremented completed_ before its observer could
  // see the matching cache_hit/coalesced/executed increment ordered).
  // Snapshot() now loads completed_ first with acquire against Fulfill's
  // release, so these invariants must hold in EVERY cut, not just at
  // quiescence — also with stages in the mix.
  auto snap = MakeDblpSnapshot(200, 20);
  const std::vector<std::string> terms = TopTerms(*snap->corpus, 6);
  ASSERT_GE(terms.size(), 4u);
  SearchService::Options options;
  options.num_threads = 4;
  SearchService service(snap, options);

  std::atomic<bool> stop{false};
  std::atomic<bool> violated{false};
  std::thread sampler([&] {
    while (!stop.load()) {
      const ServeMetrics m = service.Snapshot();
      if (m.completed > m.cache_hits + m.coalesced + m.executed ||
          m.completed > m.submitted) {
        violated.store(true);
      }
    }
  });

  constexpr int kClients = 4;
  constexpr int kPerClient = 60;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const std::string& term = terms[(c * 7 + i) % terms.size()];
        if (i % 2 == 0) {
          auto response = service.Search(MakeRequest(term));
          EXPECT_TRUE(response.ok()) << response.status();
          continue;
        }
        std::promise<Status> staged;
        service.SubmitStage(
            MakeRequest(term),
            [&staged](const ServeResponse&) { staged.set_value(Status()); },
            [&staged](const Status& status) { staged.set_value(status); });
        const Status status = staged.get_future().get();
        EXPECT_TRUE(status.ok()) << status;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true);
  sampler.join();

  EXPECT_FALSE(violated.load())
      << "a metrics snapshot showed completed ahead of its action counters";
  const ServeMetrics m = service.Snapshot();
  EXPECT_EQ(m.completed, static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(m.executed + m.cache_hits + m.coalesced, m.completed);
  EXPECT_EQ(m.rejected, 0u);
}

TEST(SearchServiceTest, CapIntraQueryThreadsNeverOversubscribes) {
  const size_t hardware = ThreadPool::HardwareThreads();
  for (const size_t workers : {size_t{1}, size_t{2}, size_t{8}, hardware}) {
    for (const int requested : {-3, 0, 1, 2, 8, 1024}) {
      const int cap = SearchService::CapIntraQueryThreads(requested, workers);
      EXPECT_GE(cap, 1);
      if (requested >= 1) {
        EXPECT_LE(cap, requested);
      }
      // The threading contract (docs/serving.md): workers x intra-query
      // threads stays within the machine whenever the pool itself does.
      if (workers <= hardware) {
        EXPECT_LE(static_cast<size_t>(cap) * workers, hardware)
            << "workers=" << workers << " requested=" << requested;
      }
    }
  }
  // A lone worker may use the whole machine.
  EXPECT_EQ(SearchService::CapIntraQueryThreads(
                static_cast<int>(hardware) + 7, 1),
            static_cast<int>(hardware));
}

TEST(SearchServiceTest, OversizedThreadRequestsShareOneCacheKey) {
  auto snap = MakeDblpSnapshot(200, 17);
  const std::string term = TopTerms(*snap->corpus, 1).front();
  SearchService::Options service_options;
  service_options.num_threads = 2;
  SearchService service(snap, service_options);

  // Both requests exceed the intra-query cap, so after clamping they are
  // the same work item and the second must be a cache hit.
  ServeRequest first = MakeRequest(term);
  first.options = snap->default_options;
  first.options->objectrank.num_threads = 64;
  ASSERT_TRUE(service.Search(std::move(first)).ok());

  ServeRequest second = MakeRequest(term);
  second.options = snap->default_options;
  second.options->objectrank.num_threads = 128;
  auto response = service.Search(std::move(second));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->cache_hit);
  EXPECT_EQ(service.Snapshot().executed, 1u);
}

// Regression: k = 2^32 - 1 off the wire once made the top-k heap reserve
// 64 GiB and abort the server. Both k values exceed the node count, so
// after clamping they ask for the same full ranked list: one execution,
// then a cache hit.
TEST(SearchServiceTest, OversizedKRequestsShareOneCacheKey) {
  auto snap = MakeDblpSnapshot(200, 17);
  const std::string term = TopTerms(*snap->corpus, 1).front();
  SearchService::Options service_options;
  service_options.num_threads = 2;
  SearchService service(snap, service_options);

  ServeRequest first = MakeRequest(term);
  first.k = 0xFFFFFFFFu;
  auto full = service.Search(std::move(first));
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_FALSE(full->cache_hit);
  EXPECT_EQ(full->result->top.size(), snap->data->num_nodes());

  ServeRequest second = MakeRequest(term);
  second.k = 0xFFFFFFFEu;
  auto response = service.Search(std::move(second));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->cache_hit);
  EXPECT_EQ(response->result, full->result);
  EXPECT_EQ(service.Snapshot().executed, 1u);
}

// --- Tiers under load --------------------------------------------------------

// Regression: a tier policy once sent kAuto requests to the approximate
// push tier when pending/max_pending reached 0.75, moving work onto a
// path measured ~10x slower than exact exactly when the service was
// loaded. Load must never change the tier: a kAuto request submitted at
// 3/4 admission load runs the exact path.
TEST(SearchServiceTierPolicyTest, LoadNeverMovesAutoOffTheExactPath) {
  auto snap = MakeDblpSnapshot(200, 21);
  const std::vector<std::string> terms = TopTerms(*snap->corpus, 4);
  ASSERT_GE(terms.size(), 4u);
  SearchService::Options options;
  options.num_threads = 1;
  options.max_pending = 4;
  SearchService service(snap, options);

  auto gate = std::make_shared<Gate>();
  ServeRequest blocker = MakeRequest(terms[0]);
  blocker.options = GatedOptions(*snap, gate);
  auto running = service.Submit(std::move(blocker));
  gate->WaitUntilEntered();  // occupies the only worker; pending = 1
  auto queued1 = service.Submit(MakeRequest(terms[1]));  // pending = 2
  auto queued2 = service.Submit(MakeRequest(terms[2]));  // pending = 3
  auto loaded = service.Submit(MakeRequest(terms[3]));   // at 3/4 load

  gate->Open();
  EXPECT_TRUE(running.get().ok());
  EXPECT_TRUE(queued1.get().ok());
  EXPECT_TRUE(queued2.get().ok());
  auto response = loaded.get();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->result->tier_used, core::SearchTier::kExact);
  EXPECT_EQ(response->result->scores, DirectSearch(*snap, terms[3]).scores);
  const ServeMetrics m = service.Snapshot();
  EXPECT_EQ(m.tier_exact, 4u);
}

TEST(SearchServiceTest, DestructorDrainsInFlightRequests) {
  auto snap = MakeDblpSnapshot(200, 13);
  const std::vector<std::string> terms = TopTerms(*snap->corpus, 8);
  std::vector<std::future<StatusOr<ServeResponse>>> futures;
  {
    SearchService::Options options;
    options.num_threads = 2;
    SearchService service(snap, options);
    for (const std::string& t : terms) {
      futures.push_back(service.Submit(MakeRequest(t)));
    }
    // No explicit wait: the destructor must fulfill every future.
  }
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok());
  }
}

}  // namespace
}  // namespace orx::serve
