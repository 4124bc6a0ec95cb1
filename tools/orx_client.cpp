// orx_client: the ORXN protocol client. Three modes:
//
//   interactive  REPL over one blocking connection (query / explain /
//                feedback / validate / metrics / ping).
//   e2e          drives the wire protocol and compares every response
//                against in-process golden results computed from the same
//                deterministic dataset (requires the server's --scale).
//   load         many non-blocking connections across a few poll() threads;
//                closed-loop (bounded outstanding per connection) or
//                open-loop (--rate RPS) with a Zipf query mix and optional
//                connection churn. Accounts for every frame sent: answered,
//                error frames (admission rejections separately), dropped.
//                With --write-fraction F, fraction F of sends are kMutate
//                batches (the server must run --mutate): read and write
//                latencies are split, the read p99 is tracked per time
//                window to expose publication-induced cliffs, and the
//                record lands in BENCH_mutate.json with the server's
//                write-path counters (snapshots published, epochs live).
//
// load writes its record to BENCH_net_serve.json (shared bench-record
// schema) and exits non-zero if any sent frame went unanswered — load
// shedding must arrive as kError/kUnavailable frames, never as silence.

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/base_set.h"
#include "core/searcher.h"
#include "dataset_spec.h"
#include "datasets/zipf.h"
#include "explain/explainer.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/net_util.h"
#include "reformulate/reformulator.h"
#include "serve/search_service.h"
#include "text/query.h"

namespace {

using namespace orx;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct ClientFlags {
  std::string mode = "interactive";
  std::string host = "127.0.0.1";
  int port = 0;
  double scale = 0.05;
  std::string dataset;     // ORXD2 container; empty = generate (--scale)
  std::string rank_cache;  // optional ORXC2 alongside --dataset
  // e2e score comparison tolerance (relative). < 0 = pick the default:
  // exact (0) against a generated server, 1e-12 against --dataset — the
  // mmap attach is bit-identical by design, but a server with a rank
  // cache the goldens lack answers from precomputed scores whose last
  // bits legitimately differ from a fresh power iteration.
  double score_tol = -1.0;
  // load:
  int threads = 4;
  int connections = 64;
  double duration = 5.0;
  int pipeline = 1;     // closed-loop outstanding frames per connection
  double rate = 0.0;    // > 0: open loop at this aggregate RPS
  double churn = 0.0;   // P(reconnect) after a response, per connection
  double drain_grace = 5.0;
  double write_fraction = 0.0;  // P(a send is a kMutate batch)
  bool json_path_set = false;   // --json given (else mixed mode retargets)
  // query mix:
  int zipf_terms = 64;
  double zipf_s = 1.0;
  uint32_t k = 10;
  uint64_t seed = 1;
  // Requested execution tier on every kSearch frame (wire value of
  // core::SearchTier): 0 auto, 1 exact.
  uint8_t tier = 0;
  std::string json_path = "BENCH_net_serve.json";
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --mode interactive|e2e|load --port P [--host H]\n"
      "  common: --scale S (dataset for query mix / e2e goldens)\n"
      "          --dataset PATH.orxd2 [--rank-cache PATH.orxc2] (attach\n"
      "          the server's container instead of generating; goldens\n"
      "          and the query mix come from the mapped corpus)\n"
      "          --score-tol T (e2e relative score tolerance; default 0\n"
      "          generated, 1e-12 with --dataset)\n"
      "          --tier auto|exact (execution tier hint on\n"
      "          every search frame; default auto)\n"
      "  load:   --threads N --connections N --duration SEC --pipeline N\n"
      "          --rate RPS (0 = closed loop) --churn P --zipf-terms N\n"
      "          --zipf-s S --k K --seed N --json PATH --drain-grace SEC\n"
      "          --write-fraction F (mix kMutate sends; server needs\n"
      "          --mutate; records land in BENCH_mutate.json)\n",
      argv0);
  return 2;
}

bool ParseFlags(int argc, char** argv, ClientFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--mode" && (v = value())) {
      flags->mode = v;
    } else if (arg == "--host" && (v = value())) {
      flags->host = v;
    } else if (arg == "--port" && (v = value())) {
      flags->port = std::atoi(v);
    } else if (arg == "--scale" && (v = value())) {
      flags->scale = std::atof(v);
    } else if (arg == "--dataset" && (v = value())) {
      flags->dataset = v;
    } else if (arg == "--rank-cache" && (v = value())) {
      flags->rank_cache = v;
    } else if (arg == "--score-tol" && (v = value())) {
      flags->score_tol = std::atof(v);
    } else if (arg == "--tier" && (v = value())) {
      const std::string tier = v;
      if (tier == "auto") {
        flags->tier = 0;
      } else if (tier == "exact") {
        flags->tier = 1;
      } else {
        std::fprintf(stderr, "unknown tier '%s'\n", v);
        return false;
      }
    } else if (arg == "--threads" && (v = value())) {
      flags->threads = std::atoi(v);
    } else if (arg == "--connections" && (v = value())) {
      flags->connections = std::atoi(v);
    } else if (arg == "--duration" && (v = value())) {
      flags->duration = std::atof(v);
    } else if (arg == "--pipeline" && (v = value())) {
      flags->pipeline = std::atoi(v);
    } else if (arg == "--rate" && (v = value())) {
      flags->rate = std::atof(v);
    } else if (arg == "--churn" && (v = value())) {
      flags->churn = std::atof(v);
    } else if (arg == "--drain-grace" && (v = value())) {
      flags->drain_grace = std::atof(v);
    } else if (arg == "--write-fraction" && (v = value())) {
      flags->write_fraction = std::atof(v);
    } else if (arg == "--zipf-terms" && (v = value())) {
      flags->zipf_terms = std::atoi(v);
    } else if (arg == "--zipf-s" && (v = value())) {
      flags->zipf_s = std::atof(v);
    } else if (arg == "--k" && (v = value())) {
      flags->k = static_cast<uint32_t>(std::atoi(v));
    } else if (arg == "--seed" && (v = value())) {
      flags->seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--json" && (v = value())) {
      flags->json_path = v;
      flags->json_path_set = true;
    } else {
      std::fprintf(stderr, "unknown or valueless flag: %s\n", arg.c_str());
      return false;
    }
  }
  return flags->port > 0 && flags->port <= 65535;
}

/// The client-side mirror of the server's dataset: the same ORXD2
/// container when --dataset is given (zero-copy attach; MAP_PRIVATE, so
/// sharing the file with a running server is safe), the same seeded
/// generation otherwise.
tools::ServingDataset BuildClientDataset(const ClientFlags& flags,
                                         size_t max_head_terms = 64) {
  if (!flags.dataset.empty()) {
    std::printf("attaching %s...\n", flags.dataset.c_str());
    auto attached = tools::BuildServingDatasetFromContainer(
        flags.dataset, flags.rank_cache, max_head_terms);
    if (!attached.ok()) {
      std::fprintf(stderr, "dataset attach: %s\n",
                   attached.status().ToString().c_str());
      // Single-threaded startup path; exit() is fine here.
      std::exit(1);  // NOLINT(concurrency-mt-unsafe)
    }
    return std::move(*attached);
  }
  return tools::BuildServingDataset(flags.scale, max_head_terms);
}

// --- interactive -----------------------------------------------------------

void PrintSearchResponse(const net::SearchResponse& response) {
  TablePrinter table({"rank", "score", "type", "label"});
  int rank = 1;
  for (const net::WireResult& r : response.results) {
    table.AddRow({std::to_string(rank++), FormatDouble(r.score, 6),
                  r.type_label, r.display_label});
  }
  std::printf("%s", table.ToString().c_str());
  // The decoder admits only 1 (exact) and 2 (cached, the rank cache).
  const char* tier = response.tier_used == 2 ? "cached" : "exact";
  std::printf("(%u iterations%s%s, tier %s, %.2f ms", response.iterations,
              response.cache_hit ? ", result-cache hit" : "",
              response.coalesced ? ", coalesced" : "", tier,
              response.total_seconds * 1e3);
  if (response.error_bound > 0.0) {
    std::printf(", bound %.3g", response.error_bound);
  }
  std::printf(")\n");
}

int RunInteractive(const ClientFlags& flags) {
  net::BlockingClient client;
  Status connected =
      client.Connect(flags.host, static_cast<uint16_t>(flags.port));
  if (!connected.ok()) {
    std::fprintf(stderr, "connect: %s\n", connected.ToString().c_str());
    return 1;
  }
  std::printf("connected to %s:%d; commands: query <terms>, explain <rank>, "
              "feedback <ranks...>, validate, metrics, ping, quit\n",
              flags.host.c_str(), flags.port);
  std::string last_query;
  std::string line;
  while (std::printf("orx> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string command;
    if (!(in >> command)) continue;
    if (command == "quit" || command == "exit") break;
    if (command == "ping") {
      Timer timer;
      Status status = client.Ping();
      std::printf("%s (%.2f ms)\n",
                  status.ok() ? "pong" : status.ToString().c_str(),
                  timer.ElapsedSeconds() * 1e3);
    } else if (command == "query" || command == "search") {
      std::string terms;
      std::getline(in, terms);
      net::SearchRequest request;
      request.query = terms;
      request.k = flags.k;
      request.tier = flags.tier;
      auto response = client.Search(request);
      if (!response.ok()) {
        std::printf("error: %s\n", response.status().ToString().c_str());
        continue;
      }
      last_query = terms;
      PrintSearchResponse(*response);
    } else if (command == "explain") {
      uint32_t rank = 1;
      in >> rank;
      if (last_query.empty()) {
        std::printf("no previous query\n");
        continue;
      }
      auto response = client.Explain({last_query, rank});
      if (!response.ok()) {
        std::printf("error: %s\n", response.status().ToString().c_str());
        continue;
      }
      std::printf("%s(%u iterations, build %.2f ms + adjust %.2f ms)\n",
                  response->text.c_str(), response->iterations,
                  response->construction_seconds * 1e3,
                  response->adjustment_seconds * 1e3);
    } else if (command == "feedback") {
      std::vector<uint32_t> ranks;
      uint32_t rank = 0;
      while (in >> rank) ranks.push_back(rank);
      if (last_query.empty()) {
        std::printf("no previous query\n");
        continue;
      }
      auto response = client.Reformulate({last_query, ranks});
      if (!response.ok()) {
        std::printf("error: %s\n", response.status().ToString().c_str());
        continue;
      }
      std::printf("reformulated: %s\n",
                  response->reformulated_query.c_str());
      for (const auto& [term, weight] : response->top_expansion_terms) {
        std::printf("  + %s (%.4f)\n", term.c_str(), weight);
      }
      last_query = response->reformulated_query;
    } else if (command == "validate") {
      auto response = client.Validate();
      if (!response.ok()) {
        std::printf("error: %s\n", response.status().ToString().c_str());
        continue;
      }
      std::printf("%s: %s\n", response->ok ? "OK" : "FAILED",
                  response->report.c_str());
    } else if (command == "metrics") {
      auto response = client.Metrics();
      if (!response.ok()) {
        std::printf("error: %s\n", response.status().ToString().c_str());
        continue;
      }
      const serve::ServeMetrics& m = response->serve;
      std::printf(
          "serve: submitted=%llu completed=%llu rejected=%llu hits=%llu "
          "coalesced=%llu executed=%llu p50=%.2fms p99=%.2fms qps=%.1f\n",
          static_cast<unsigned long long>(m.submitted),
          static_cast<unsigned long long>(m.completed),
          static_cast<unsigned long long>(m.rejected),
          static_cast<unsigned long long>(m.cache_hits),
          static_cast<unsigned long long>(m.coalesced),
          static_cast<unsigned long long>(m.executed),
          m.latency_p50 * 1e3, m.latency_p99 * 1e3, m.qps);
      std::printf(
          "net: accepted=%llu open=%llu frames in=%llu out=%llu errors=%llu "
          "decode=%llu backpressure=%llu idle=%llu\n",
          static_cast<unsigned long long>(response->connections_accepted),
          static_cast<unsigned long long>(response->connections_open),
          static_cast<unsigned long long>(response->frames_received),
          static_cast<unsigned long long>(response->frames_sent),
          static_cast<unsigned long long>(response->error_frames_sent),
          static_cast<unsigned long long>(response->decode_errors),
          static_cast<unsigned long long>(response->backpressure_closes),
          static_cast<unsigned long long>(response->idle_closes));
    } else {
      std::printf("unknown command '%s'\n", command.c_str());
    }
  }
  return 0;
}

// --- e2e -------------------------------------------------------------------

/// A fresh search of `query` on `snap`, with the options `service`
/// resolves for a request that sets none: the explain and reformulate
/// goldens need its full score vector, which a result-cache hit may not
/// carry (serve::ServeResponse::result).
StatusOr<core::SearchResult> GoldenSearch(const serve::SearchService& service,
                                          const serve::ServeSnapshot& snap,
                                          const text::QueryVector& query) {
  core::Searcher searcher(*snap.data, *snap.authority, *snap.corpus);
  if (snap.rank_cache != nullptr) {
    searcher.AttachRankCache(snap.rank_cache.get());
  }
  if (snap.fused_cache != nullptr) {
    searcher.AttachFusedCache(snap.fused_cache);
  }
  core::SearchOptions options = snap.default_options;
  options.objectrank.num_threads = serve::SearchService::CapIntraQueryThreads(
      options.objectrank.num_threads, service.num_threads());
  return searcher.Search(query, snap.rates, options);
}

#define E2E_CHECK(cond, what)                                       \
  do {                                                              \
    if (cond) {                                                     \
      std::printf("  ok: %s\n", what);                              \
    } else {                                                        \
      std::printf("  FAIL: %s\n", what);                            \
      ++failures;                                                   \
    }                                                               \
  } while (0)

int RunE2e(const ClientFlags& flags) {
  std::printf("e2e: building golden dataset (scale=%.3f)...\n", flags.scale);
  tools::ServingDataset dataset = BuildClientDataset(flags);
  serve::SearchService golden(dataset.snapshot, {});
  const serve::ServeSnapshot& snap = *dataset.snapshot;

  // Exact against a generated twin; float-tolerant against a container
  // (see ClientFlags::score_tol).
  const double score_tol =
      flags.score_tol >= 0.0 ? flags.score_tol
                             : (flags.dataset.empty() ? 0.0 : 1e-12);
  auto scores_close = [score_tol](double wire, double local) {
    if (wire == local) return true;
    return std::abs(wire - local) <=
           score_tol * std::max({1.0, std::abs(wire), std::abs(local)});
  };

  net::BlockingClient client;
  Status connected =
      client.Connect(flags.host, static_cast<uint16_t>(flags.port));
  if (!connected.ok()) {
    std::fprintf(stderr, "connect: %s\n", connected.ToString().c_str());
    return 1;
  }
  int failures = 0;

  E2E_CHECK(client.Ping().ok(), "ping");

  // Search: wire results must match the in-process service bit-for-bit —
  // same deterministic generation, same snapshot, same kernels (the
  // power iteration promises per-lane bit-identity across paths).
  std::vector<std::string> queries;
  for (size_t i = 0; i < dataset.head_terms.size() && queries.size() < 6; ++i) {
    queries.push_back(dataset.head_terms[i]);
  }
  if (dataset.head_terms.size() >= 2) {
    queries.push_back(dataset.head_terms[0] + " " + dataset.head_terms[1]);
  }
  for (const std::string& q : queries) {
    auto wire = client.Search({q, flags.k, 0.0});
    serve::ServeRequest request;
    request.query = text::QueryVector(text::ParseQuery(q));
    request.k = flags.k;
    auto local = golden.Search(std::move(request));
    const std::string what = "search '" + q + "'";
    if (!wire.ok() || !local.ok()) {
      E2E_CHECK(!wire.ok() && !local.ok() &&
                    wire.status().code() == local.status().code(),
                (what + " (status parity)").c_str());
      continue;
    }
    bool same = wire->results.size() == local->result->top.size();
    for (size_t i = 0; same && i < wire->results.size(); ++i) {
      const net::WireResult& w = wire->results[i];
      const core::ScoredNode& g = local->result->top[i];
      same = w.node == g.node && scores_close(w.score, g.score) &&
             w.display_label == snap.data->DisplayLabel(g.node);
    }
    E2E_CHECK(same, what.c_str());
  }

  // The local answers of the explain and reformulate stages, computed as
  // the server computes them: over a fresh search of `q` with its full
  // score vector, at the snapshot's damping. Empty when they fail.
  auto local_explain = [&](const std::string& q, uint32_t rank) {
    text::QueryVector query(text::ParseQuery(q));
    auto local = GoldenSearch(golden, snap, query);
    if (!local.ok() || local->top.size() < rank) return std::string();
    auto base = core::BuildBaseSet(*snap.corpus, query,
                                   core::BaseSetMode::kIrWeighted,
                                   snap.default_options.bm25);
    if (!base.ok()) return std::string();
    explain::Explainer explainer(*snap.data, *snap.authority);
    auto explanation = explainer.Explain(
        local->top[rank - 1].node, *base, local->scores, snap.rates,
        snap.default_options.objectrank.damping, explain::ExplainOptions{});
    return explanation.ok() ? explanation->subgraph.ToString(*snap.data)
                            : std::string();
  };
  auto local_reformulation = [&](const std::string& q,
                                 const std::vector<uint32_t>& ranks) {
    text::QueryVector query(text::ParseQuery(q));
    auto local = GoldenSearch(golden, snap, query);
    if (!local.ok()) return std::string();
    auto base = core::BuildBaseSet(*snap.corpus, query,
                                   core::BaseSetMode::kIrWeighted,
                                   snap.default_options.bm25);
    if (!base.ok()) return std::string();
    std::vector<graph::NodeId> feedback;
    for (uint32_t rank : ranks) {
      if (rank == 0 || rank > local->top.size()) return std::string();
      feedback.push_back(local->top[rank - 1].node);
    }
    reform::Reformulator reformulator(*snap.data, *snap.authority,
                                      *snap.corpus);
    reform::ReformulationOptions options;
    options.damping = snap.default_options.objectrank.damping;
    auto result = reformulator.Reformulate(query, snap.rates, *base,
                                           local->scores, feedback, options);
    return result.ok() ? result->query.ToString() : std::string();
  };

  // Explain: wire text equals the locally computed explaining subgraph.
  {
    const std::string& q = queries.front();
    auto wire = client.Explain({q, 2});
    const std::string local = local_explain(q, 2);
    E2E_CHECK(wire.ok() && !local.empty() && wire->text == local,
              "explain rank 2 matches local explainer");

    auto out_of_range = client.Explain({q, 9999});
    E2E_CHECK(!out_of_range.ok() && out_of_range.status().code() ==
                                        StatusCode::kInvalidArgument,
              "explain rank 9999 -> kInvalidArgument error frame");
  }

  // Reformulate: wire query string equals the local reformulator's.
  {
    const std::string& q = queries.front();
    auto wire = client.Reformulate({q, {1, 3}});
    const std::string local = local_reformulation(q, {1, 3});
    E2E_CHECK(wire.ok() && !local.empty() &&
                  wire->reformulated_query == local,
              "reformulate {1,3} matches local reformulator");

    // The paper's loop: a reformulate after an explain of the same cached
    // result learns from the subgraph the explain built (the server's
    // explain memo), and must still equal the local answers.
    auto explained = client.Explain({q, 2});
    auto reformulated = client.Reformulate({q, {2, 3}});
    const std::string local_text = local_explain(q, 2);
    const std::string local_query = local_reformulation(q, {2, 3});
    E2E_CHECK(explained.ok() && !local_text.empty() &&
                  explained->text == local_text && reformulated.ok() &&
                  !local_query.empty() &&
                  reformulated->reformulated_query == local_query,
              "explain rank 2, then reformulate {2,3} matches local "
              "explainer/reformulator");

    // A repeated rank is refused before the stage is admitted, however
    // many times the frame repeats it.
    auto twice = client.Reformulate({q, {1, 1}});
    E2E_CHECK(!twice.ok() &&
                  twice.status().code() == StatusCode::kInvalidArgument,
              "reformulate {1,1} -> kInvalidArgument error frame");
    Timer flood_timer;
    auto flood = client.Reformulate({q, std::vector<uint32_t>(100000, 1)});
    E2E_CHECK(!flood.ok() &&
                  flood.status().code() == StatusCode::kInvalidArgument &&
                  flood_timer.ElapsedSeconds() < 1.0,
              "reformulate 100,000 x rank 1 -> kInvalidArgument within 1 s");
  }

  {
    auto empty = client.Search({"", flags.k, 0.0});
    E2E_CHECK(!empty.ok() &&
                  empty.status().code() == StatusCode::kInvalidArgument,
              "empty query -> kInvalidArgument error frame");

    // The largest k the wire carries is clamped to the node count: the
    // whole ranked list comes back, and the connection still answers.
    auto huge = client.Search({queries.front(), 0xFFFFFFFFu, 0.0});
    E2E_CHECK(huge.ok() && !huge->results.empty() &&
                  huge->results.size() <= snap.data->num_nodes() &&
                  client.Ping().ok(),
              "search k=0xFFFFFFFF -> at most n results, connection alive");
  }

  // Tier hints: an exact-tier request reports tier 1 with a zero bound;
  // tier 2 (cached) only reports an answer, so a request naming it is
  // refused at decode with a kError frame.
  {
    const std::string& q = queries.front();
    net::SearchRequest exact_request;
    exact_request.query = q;
    exact_request.k = flags.k;
    exact_request.tier = 1;
    auto exact = client.Search(exact_request);
    E2E_CHECK(exact.ok() && exact->tier_used == 1 &&
                  exact->error_bound == 0.0,
              "tier=exact -> tier_used 1, zero error bound");

    net::SearchRequest cached_request = exact_request;
    cached_request.tier = 2;
    auto cached = client.Search(cached_request);
    E2E_CHECK(!cached.ok() &&
                  cached.status().code() == StatusCode::kDataLoss &&
                  cached.status().message().find("search tier 2") !=
                      std::string::npos,
              "tier 2 (cached, answer-only) -> kDataLoss error frame");
  }
  {
    auto validate = client.Validate();
    E2E_CHECK(validate.ok() && validate->ok,
              "validate reports a structurally sound snapshot");
  }
  {
    auto metrics = client.Metrics();
    E2E_CHECK(metrics.ok() && metrics->frames_received > 0 &&
                  metrics->serve.completed <= metrics->serve.submitted,
              "metrics consistent (frames seen, completed <= submitted)");
  }

  std::printf("e2e: %s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL",
              failures, failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

// --- load ------------------------------------------------------------------

/// Aggregated per-thread accounting. "dropped" are frames we sent that
/// were never answered by anything — not even an error frame. The
/// acceptance bar is dropped == 0: under overload the server sheds load
/// with kError/kUnavailable, it does not go silent.
struct LoadCounters {
  uint64_t sent = 0;
  uint64_t answered = 0;
  uint64_t error_frames = 0;
  uint64_t rejected = 0;  // error frames carrying kUnavailable
  uint64_t dropped = 0;
  uint64_t reconnects = 0;
  uint64_t connect_failures = 0;
  uint64_t writes_sent = 0;
  uint64_t writes_answered = 0;
  uint64_t writes_rejected = 0;  // kUnavailable on a kMutate (log full)

  void MergeInto(LoadCounters* total) const {
    total->sent += sent;
    total->answered += answered;
    total->error_frames += error_frames;
    total->rejected += rejected;
    total->dropped += dropped;
    total->reconnects += reconnects;
    total->connect_failures += connect_failures;
    total->writes_sent += writes_sent;
    total->writes_answered += writes_answered;
    total->writes_rejected += writes_rejected;
  }
};

struct InflightFrame {
  Clock::time_point sent;
  bool is_write = false;
};

struct LoadConn {
  int fd = -1;
  std::string outbuf;
  size_t write_pos = 0;
  std::string inbuf;
  std::unordered_map<uint64_t, InflightFrame> inflight;
  uint64_t next_id = 1;
  double next_send = 0.0;  // open-loop schedule, seconds since thread start
};

/// Node/type handles the mixed mode mutates against. Writes only ever
/// reference *initial* nodes: RemoveNode is detach-only (dense stable
/// ids) and the load mode never removes, so ids valid at dataset build
/// time stay valid on the server no matter how many writes land first.
struct WritePlan {
  std::vector<graph::NodeId> papers;
  std::vector<graph::NodeId> authors;
  graph::TypeId paper_type = 0;
  graph::EdgeTypeId cites = 0;
  graph::EdgeTypeId by = 0;
};

struct LoadShared {
  const ClientFlags* flags = nullptr;
  const std::vector<std::string>* terms = nullptr;
  const datasets::ZipfSampler* popularity = nullptr;
  LatencyHistogram* histogram = nullptr;        // reads
  LatencyHistogram* write_histogram = nullptr;  // kMutate acks
  /// Read latencies bucketed by send-period time window; a snapshot
  /// publication that stalls readers shows up as one window's p99
  /// spiking above the others (the "cliff" the acceptance bar forbids).
  std::vector<LatencyHistogram>* read_windows = nullptr;
  double window_seconds = 1.0;
  const WritePlan* writes = nullptr;  // null = read-only load
  std::latch* ready = nullptr;
};

int ConnectLoad(const ClientFlags& flags, LoadCounters* counters) {
  // A burst of N simultaneous connects can overflow the listen backlog;
  // brief retries keep the ramp honest instead of under-provisioning the
  // fleet silently.
  for (int attempt = 0; attempt < 50; ++attempt) {
    auto fd = net::ConnectTcp(flags.host, static_cast<uint16_t>(flags.port));
    if (fd.ok()) {
      IgnoreError(net::SetNonBlocking(*fd));
      return *fd;
    }
    usleep(2000 * (attempt + 1));
  }
  ++counters->connect_failures;
  return -1;
}

/// Flushes as much of the outbound buffer as the socket accepts.
/// Returns false when the connection died under us.
bool FlushConn(LoadConn* conn) {
  while (conn->write_pos < conn->outbuf.size()) {
    const ssize_t n = net::RetryEintr([&] {
      return write(conn->fd, conn->outbuf.data() + conn->write_pos,
                   conn->outbuf.size() - conn->write_pos);
    });
    if (n > 0) {
      conn->write_pos += static_cast<size_t>(n);
      continue;
    }
    if (n == -1 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
  conn->outbuf.clear();
  conn->write_pos = 0;
  return true;
}

void CloseLoadConn(LoadConn* conn, LoadCounters* counters) {
  counters->dropped += conn->inflight.size();
  conn->inflight.clear();
  if (conn->fd != -1) close(conn->fd);
  conn->fd = -1;
  conn->outbuf.clear();
  conn->write_pos = 0;
  conn->inbuf.clear();
}

void SendSearch(LoadConn* conn, const LoadShared& shared, Rng& rng,
                LoadCounters* counters, Clock::time_point now) {
  net::SearchRequest request;
  request.query = (*shared.terms)[shared.popularity->Sample(rng)];
  request.k = shared.flags->k;
  request.tier = shared.flags->tier;
  const uint64_t id = conn->next_id++;
  conn->outbuf += net::EncodeFrame(net::Op::kSearch, id,
                                   net::EncodeSearchRequest(request));
  conn->inflight.emplace(id, InflightFrame{now, false});
  ++counters->sent;
}

/// One kMutate batch of 1–3 mutations against the write plan: title
/// rewrites on existing papers (text + BM25 stats churn), new citation /
/// authorship edges (authority churn; an occasional exact duplicate is
/// rejected at apply time, which the rejected-batch accounting absorbs),
/// and fresh paper nodes built from head terms.
void SendMutate(LoadConn* conn, const LoadShared& shared, Rng& rng,
                LoadCounters* counters, Clock::time_point now) {
  const WritePlan& plan = *shared.writes;
  const std::vector<std::string>& terms = *shared.terms;
  auto term = [&]() -> const std::string& {
    return terms[rng.UniformInt(terms.size())];
  };
  auto paper = [&]() -> graph::NodeId {
    return plan.papers[rng.UniformInt(plan.papers.size())];
  };
  net::MutateRequest request;
  const size_t count = 1 + rng.UniformInt(3);
  for (size_t i = 0; i < count; ++i) {
    switch (rng.UniformInt(3)) {
      case 0:
        request.batch.mutations.push_back(mutate::Mutation::UpdateNodeText(
            paper(), {{"title", term() + " " + term() + " revised"}}));
        break;
      case 1:
        if (!plan.authors.empty() && rng.UniformInt(2) == 0) {
          request.batch.mutations.push_back(mutate::Mutation::AddEdge(
              paper(), plan.authors[rng.UniformInt(plan.authors.size())],
              plan.by));
        } else {
          const size_t a = rng.UniformInt(plan.papers.size());
          const size_t b =
              (a + 1 + rng.UniformInt(plan.papers.size() - 1)) %
              plan.papers.size();
          request.batch.mutations.push_back(mutate::Mutation::AddEdge(
              plan.papers[a], plan.papers[b], plan.cites));
        }
        break;
      default:
        request.batch.mutations.push_back(mutate::Mutation::AddNode(
            plan.paper_type,
            {{"title", term() + " " + term() + " " + term()}}));
        break;
    }
  }
  const uint64_t id = conn->next_id++;
  conn->outbuf += net::EncodeFrame(net::Op::kMutate, id,
                                   net::EncodeMutateRequest(request));
  conn->inflight.emplace(id, InflightFrame{now, true});
  ++counters->sent;
  ++counters->writes_sent;
}

/// Picks read vs write per the configured mix.
void SendOne(LoadConn* conn, const LoadShared& shared, Rng& rng,
             LoadCounters* counters, Clock::time_point now) {
  if (shared.writes != nullptr &&
      rng.UniformDouble() < shared.flags->write_fraction) {
    SendMutate(conn, shared, rng, counters, now);
  } else {
    SendSearch(conn, shared, rng, counters, now);
  }
}

/// Consumes complete frames from the connection's read buffer. Returns
/// false if framing was lost (the connection must be closed). `start` is
/// the thread's send-period origin, for windowed read latencies.
bool ParseLoadFrames(LoadConn* conn, const LoadShared& shared,
                     LoadCounters* counters, Clock::time_point start) {
  size_t pos = 0;
  while (conn->inbuf.size() - pos >= net::kHeaderSize) {
    auto header = net::DecodeHeader(conn->inbuf.data() + pos);
    if (!header.ok()) return false;
    if (conn->inbuf.size() - pos < net::kHeaderSize + header->payload_size) {
      break;
    }
    const Clock::time_point now = Clock::now();
    bool is_write = false;
    auto it = conn->inflight.find(header->request_id);
    if (it != conn->inflight.end()) {
      is_write = it->second.is_write;
      const double latency = Seconds(it->second.sent, now);
      if (is_write) {
        shared.write_histogram->Record(latency);
        ++counters->writes_answered;
      } else {
        shared.histogram->Record(latency);
        if (shared.read_windows != nullptr && !shared.read_windows->empty()) {
          const size_t window = std::min(
              shared.read_windows->size() - 1,
              static_cast<size_t>(std::max(0.0, Seconds(start, now)) /
                                  shared.window_seconds));
          (*shared.read_windows)[window].Record(latency);
        }
      }
      conn->inflight.erase(it);
      ++counters->answered;
    }
    if (header->op == net::Op::kError) {
      ++counters->error_frames;
      const std::string payload = conn->inbuf.substr(
          pos + net::kHeaderSize, header->payload_size);
      auto error = net::DecodeErrorResponse(payload);
      if (error.ok() && error->code == StatusCode::kUnavailable) {
        ++counters->rejected;
        if (is_write) ++counters->writes_rejected;
      }
    }
    pos += net::kHeaderSize + header->payload_size;
  }
  conn->inbuf.erase(0, pos);
  return true;
}

void RunLoadThread(int thread_index, int num_conns, LoadShared shared,
                   LoadCounters* counters) {
  const ClientFlags& flags = *shared.flags;
  Rng rng(flags.seed * 7919 + static_cast<uint64_t>(thread_index) + 1);
  std::vector<LoadConn> conns(static_cast<size_t>(num_conns));
  for (LoadConn& conn : conns) conn.fd = ConnectLoad(flags, counters);

  // Open-loop pacing: each connection owns an equal slice of the target
  // rate, with a jittered start so the fleet doesn't fire in phase.
  const double interval =
      flags.rate > 0.0
          ? static_cast<double>(flags.threads) * num_conns / flags.rate
          : 0.0;
  for (LoadConn& conn : conns) {
    conn.next_send = interval * rng.UniformDouble();
  }

  shared.ready->arrive_and_wait();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(flags.duration));
  const Clock::time_point drain_deadline =
      end + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(flags.drain_grace));

  std::vector<pollfd> fds;
  std::vector<size_t> index;  // fds[i] -> conns[index[i]]
  for (;;) {
    const Clock::time_point now = Clock::now();
    const bool sending = now < end;
    if (!sending) {
      bool idle = true;
      for (const LoadConn& conn : conns) {
        if (conn.fd != -1 &&
            (!conn.inflight.empty() || conn.write_pos < conn.outbuf.size())) {
          idle = false;
          break;
        }
      }
      if (idle || now >= drain_deadline) break;
    }

    const double elapsed = Seconds(start, now);
    for (LoadConn& conn : conns) {
      if (conn.fd == -1) {
        if (sending) {
          conn.fd = ConnectLoad(flags, counters);
          if (conn.fd != -1) ++counters->reconnects;
        }
        if (conn.fd == -1) continue;
      }
      if (!sending) continue;
      if (flags.rate > 0.0) {
        // Open loop: send on schedule regardless of outstanding frames
        // (bounded only by a sanity cap so a stalled server can't grow
        // the map without limit — those sends are simply not offered).
        while (conn.next_send <= elapsed &&
               conn.inflight.size() < 4096) {
          SendOne(&conn, shared, rng, counters, now);
          conn.next_send += interval;
        }
      } else {
        while (conn.inflight.size() <
               static_cast<size_t>(flags.pipeline)) {
          SendOne(&conn, shared, rng, counters, now);
        }
      }
      if (!FlushConn(&conn)) CloseLoadConn(&conn, counters);
    }

    fds.clear();
    index.clear();
    for (size_t i = 0; i < conns.size(); ++i) {
      if (conns[i].fd == -1) continue;
      pollfd p{};
      p.fd = conns[i].fd;
      p.events = POLLIN;
      if (conns[i].write_pos < conns[i].outbuf.size()) p.events |= POLLOUT;
      fds.push_back(p);
      index.push_back(i);
    }
    if (fds.empty()) {
      if (!sending) break;
      usleep(1000);
      continue;
    }
    const int ready = net::RetryEintr([&] {
      return poll(fds.data(), fds.size(), 2);
    });
    if (ready <= 0) continue;

    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      LoadConn& conn = conns[index[i]];
      if (fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        CloseLoadConn(&conn, counters);
        continue;
      }
      if (fds[i].revents & POLLOUT) {
        if (!FlushConn(&conn)) {
          CloseLoadConn(&conn, counters);
          continue;
        }
      }
      if ((fds[i].revents & POLLIN) == 0) continue;
      bool dead = false;
      char buffer[65536];
      for (;;) {
        const ssize_t n = net::RetryEintr([&] {
          return read(conn.fd, buffer, sizeof(buffer));
        });
        if (n > 0) {
          conn.inbuf.append(buffer, static_cast<size_t>(n));
          continue;
        }
        if (n == -1 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        dead = true;  // EOF or a hard error
        break;
      }
      if (!ParseLoadFrames(&conn, shared, counters, start)) dead = true;
      if (dead) {
        CloseLoadConn(&conn, counters);
        continue;
      }
      // Churn: once quiescent, occasionally cycle the connection to
      // exercise accept/close under load. Only when nothing is in
      // flight, so churn never manufactures dropped frames.
      if (Clock::now() < end && flags.churn > 0.0 &&
          conn.inflight.empty() && rng.UniformDouble() < flags.churn) {
        CloseLoadConn(&conn, counters);
        conn.fd = ConnectLoad(flags, counters);
        if (conn.fd != -1) ++counters->reconnects;
      }
    }
  }

  for (LoadConn& conn : conns) {
    if (conn.fd != -1) CloseLoadConn(&conn, counters);
  }
}

int RunLoad(const ClientFlags& flags) {
  net::IgnoreSigpipe();
  std::printf("load: building query mix (scale=%.3f)...\n", flags.scale);
  tools::ServingDataset dataset =
      BuildClientDataset(flags, static_cast<size_t>(flags.zipf_terms));
  if (dataset.head_terms.empty()) {
    std::fprintf(stderr, "load: empty query universe\n");
    return 1;
  }
  const datasets::ZipfSampler popularity(dataset.head_terms.size(),
                                         flags.zipf_s);
  LatencyHistogram histogram;
  LatencyHistogram write_histogram;

  const bool mixed = flags.write_fraction > 0.0;
  WritePlan plan;
  if (mixed) {
    const graph::DataGraph& data = dataset.dblp->dataset.data();
    const datasets::DblpTypes& types = dataset.dblp->types;
    plan.paper_type = types.paper;
    plan.cites = types.cites;
    plan.by = types.by;
    for (graph::NodeId v = 0;
         v < static_cast<graph::NodeId>(data.num_nodes()); ++v) {
      if (data.NodeType(v) == types.paper) {
        plan.papers.push_back(v);
      } else if (data.NodeType(v) == types.author) {
        plan.authors.push_back(v);
      }
    }
    if (plan.papers.size() < 2) {
      std::fprintf(stderr, "load: dataset too small for a write mix\n");
      return 1;
    }
  }
  // ~1s read-latency windows across the send period (at least 4 so a
  // single publication stall can't hide in a lone window's average).
  const size_t num_windows =
      std::max<size_t>(4, static_cast<size_t>(flags.duration));
  std::vector<LatencyHistogram> read_windows(mixed ? num_windows : 0);

  const int threads = std::max(1, flags.threads);
  const int connections = std::max(1, flags.connections);
  std::latch ready(threads + 1);
  LoadShared shared;
  shared.flags = &flags;
  shared.terms = &dataset.head_terms;
  shared.popularity = &popularity;
  shared.histogram = &histogram;
  shared.write_histogram = &write_histogram;
  shared.read_windows = mixed ? &read_windows : nullptr;
  shared.window_seconds =
      flags.duration / static_cast<double>(num_windows);
  shared.writes = mixed ? &plan : nullptr;
  shared.ready = &ready;

  std::printf("load: %d connections on %d threads for %.1fs (%s%s%s)\n",
              connections, threads, flags.duration,
              flags.rate > 0.0
                  ? ("open loop @ " + FormatDouble(flags.rate, 0) + " rps")
                        .c_str()
                  : ("closed loop, pipeline " +
                     std::to_string(flags.pipeline))
                        .c_str(),
              flags.churn > 0.0 ? ", with churn" : "",
              mixed ? (", write fraction " +
                       FormatDouble(flags.write_fraction, 2))
                          .c_str()
                    : "");
  std::vector<LoadCounters> per_thread(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    const int conns =
        connections / threads + (t < connections % threads ? 1 : 0);
    workers.emplace_back(RunLoadThread, t, conns, shared,
                         &per_thread[static_cast<size_t>(t)]);
  }
  ready.arrive_and_wait();
  const Clock::time_point start = Clock::now();
  for (std::thread& w : workers) w.join();
  const double wall = Seconds(start, Clock::now());

  LoadCounters total;
  for (const LoadCounters& c : per_thread) c.MergeInto(&total);
  const double rps = wall > 0.0 ? total.answered / wall : 0.0;
  const double p50 = histogram.Percentile(50) * 1e3;
  const double p95 = histogram.Percentile(95) * 1e3;
  const double p99 = histogram.Percentile(99) * 1e3;
  const double mean = histogram.MeanSeconds() * 1e3;

  TablePrinter table({"sent", "answered", "errors", "rejected", "dropped",
                      "reconnects", "rps", "p50 (ms)", "p95 (ms)",
                      "p99 (ms)", "mean (ms)"});
  table.AddRow({std::to_string(total.sent), std::to_string(total.answered),
                std::to_string(total.error_frames),
                std::to_string(total.rejected),
                std::to_string(total.dropped),
                std::to_string(total.reconnects), FormatDouble(rps, 0),
                FormatDouble(p50, 2), FormatDouble(p95, 2),
                FormatDouble(p99, 2), FormatDouble(mean, 2)});
  std::printf("%s", table.ToString().c_str());
  std::printf("error_frames=%llu dropped=%llu connect_failures=%llu\n",
              static_cast<unsigned long long>(total.error_frames),
              static_cast<unsigned long long>(total.dropped),
              static_cast<unsigned long long>(total.connect_failures));

  // Mixed-mode extras: write-side latencies, the windowed read p99 (a
  // publication-induced stall spikes one window), and the server's
  // write-path counters from a final kMetrics call.
  double write_p50 = 0.0, write_p95 = 0.0, write_p99 = 0.0;
  double window_p99_max = 0.0, window_p99_min = 0.0;
  net::MetricsResponse server_metrics;
  bool have_metrics = false;
  if (mixed) {
    write_p50 = write_histogram.Percentile(50) * 1e3;
    write_p95 = write_histogram.Percentile(95) * 1e3;
    write_p99 = write_histogram.Percentile(99) * 1e3;
    bool first = true;
    for (const LatencyHistogram& w : read_windows) {
      if (w.TotalCount() == 0) continue;
      const double wp99 = w.Percentile(99) * 1e3;
      window_p99_max = first ? wp99 : std::max(window_p99_max, wp99);
      window_p99_min = first ? wp99 : std::min(window_p99_min, wp99);
      first = false;
    }
    std::printf("write: sent=%llu answered=%llu rejected=%llu "
                "p50=%.2fms p95=%.2fms p99=%.2fms\n",
                static_cast<unsigned long long>(total.writes_sent),
                static_cast<unsigned long long>(total.writes_answered),
                static_cast<unsigned long long>(total.writes_rejected),
                write_p50, write_p95, write_p99);
    std::printf("read p99 by window: min=%.2fms max=%.2fms (overall "
                "%.2fms across %zu windows)\n",
                window_p99_min, window_p99_max, p99, read_windows.size());

    net::BlockingClient metrics_client;
    Status connected = metrics_client.Connect(
        flags.host, static_cast<uint16_t>(flags.port));
    if (connected.ok()) {
      auto response = metrics_client.Metrics();
      if (response.ok()) {
        server_metrics = *response;
        have_metrics = true;
        std::printf(
            "server write path: accepted=%llu rejected=%llu queued=%llu "
            "snapshots_published=%llu epochs_live=%llu rank terms "
            "reused=%llu refreshed=%llu\n",
            static_cast<unsigned long long>(server_metrics.mutate_accepted),
            static_cast<unsigned long long>(server_metrics.mutate_rejected),
            static_cast<unsigned long long>(server_metrics.mutate_queued),
            static_cast<unsigned long long>(
                server_metrics.snapshots_published),
            static_cast<unsigned long long>(server_metrics.epochs_live),
            static_cast<unsigned long long>(
                server_metrics.rank_terms_reused),
            static_cast<unsigned long long>(
                server_metrics.rank_terms_refreshed));
      }
    }
    if (!have_metrics) {
      std::fprintf(stderr,
                   "load: warning — could not fetch final server metrics\n");
    }
  }

  const std::string json_path = (mixed && !flags.json_path_set)
                                    ? std::string("BENCH_mutate.json")
                                    : flags.json_path;
  bench::JsonObject record = bench::BenchRecord(
      mixed ? "net_serve_mutate_load" : "net_serve_load",
      bench::BenchDataset{dataset.description,
                          dataset.snapshot->data->num_nodes(),
                          dataset.snapshot->authority->num_edges()},
      threads, wall);
  record.Add("mode", flags.rate > 0.0 ? "open" : "closed")
      .Add("tier", static_cast<int>(flags.tier))
      .Add("connections", connections)
      .Add("pipeline", flags.pipeline)
      .Add("target_rate", flags.rate)
      .Add("churn", flags.churn)
      .Add("duration_seconds", flags.duration)
      .Add("sent", static_cast<unsigned long long>(total.sent))
      .Add("answered", static_cast<unsigned long long>(total.answered))
      .Add("error_frames",
           static_cast<unsigned long long>(total.error_frames))
      .Add("rejected", static_cast<unsigned long long>(total.rejected))
      .Add("dropped", static_cast<unsigned long long>(total.dropped))
      .Add("reconnects", static_cast<unsigned long long>(total.reconnects))
      .Add("rps", rps)
      .Add("latency_p50_ms", p50)
      .Add("latency_p95_ms", p95)
      .Add("latency_p99_ms", p99)
      .Add("latency_mean_ms", mean);
  if (mixed) {
    record.Add("write_fraction", flags.write_fraction)
        .Add("writes_sent", static_cast<unsigned long long>(total.writes_sent))
        .Add("writes_answered",
             static_cast<unsigned long long>(total.writes_answered))
        .Add("writes_rejected",
             static_cast<unsigned long long>(total.writes_rejected))
        .Add("write_latency_p50_ms", write_p50)
        .Add("write_latency_p95_ms", write_p95)
        .Add("write_latency_p99_ms", write_p99)
        .Add("read_p99_window_min_ms", window_p99_min)
        .Add("read_p99_window_max_ms", window_p99_max)
        .Add("read_windows", read_windows.size())
        .Add("mutate_accepted",
             static_cast<unsigned long long>(server_metrics.mutate_accepted))
        .Add("mutate_rejected",
             static_cast<unsigned long long>(server_metrics.mutate_rejected))
        .Add("snapshots_published",
             static_cast<unsigned long long>(
                 server_metrics.snapshots_published))
        .Add("epochs_live",
             static_cast<unsigned long long>(server_metrics.epochs_live))
        .Add("rank_terms_reused",
             static_cast<unsigned long long>(
                 server_metrics.rank_terms_reused))
        .Add("rank_terms_refreshed",
             static_cast<unsigned long long>(
                 server_metrics.rank_terms_refreshed));
  }
  bench::WriteJsonFile(json_path, bench::JsonArray({record.ToString()}));

  if (total.dropped > 0) {
    std::fprintf(stderr,
                 "load: FAIL — %llu sent frames were never answered\n",
                 static_cast<unsigned long long>(total.dropped));
    return 1;
  }
  if (mixed && have_metrics && total.writes_sent > 0 &&
      server_metrics.snapshots_published == 0) {
    std::fprintf(stderr,
                 "load: FAIL — writes were accepted but no snapshot was "
                 "ever published (builder not running?)\n");
    return 1;
  }
  std::printf("load: PASS — every sent frame was answered\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ClientFlags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage(argv[0]);
  if (flags.mode == "interactive") return RunInteractive(flags);
  if (flags.mode == "e2e") return RunE2e(flags);
  if (flags.mode == "load") return RunLoad(flags);
  std::fprintf(stderr, "unknown mode '%s'\n", flags.mode.c_str());
  return Usage(argv[0]);
}
