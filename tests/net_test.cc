// Tests for the network front end (src/net/): the ORXN frame codec's
// round-trips and hardened rejection paths, the epoll server's lifecycle
// (loopback connections, malformed-frame handling, admission-overflow
// error frames, idle timeouts, graceful drain), and the full protocol
// stack over a generated DBLP snapshot: explain and reformulate run as
// admitted pool stages, never on a loop thread, and share the handler's
// explain memo without ever crossing results. The whole suite is
// tsan-labeled (tools/check_tsan.sh), which covers the concurrent
// clients and the concurrent paper sessions.

#include "net/server.h"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/epoll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/base_set.h"
#include "core/rank_cache.h"
#include "core/searcher.h"
#include "datasets/dblp_generator.h"
#include "explain/explainer.h"
#include "mutate/delta_log.h"
#include "mutate/epoch.h"
#include "mutate/mutation.h"
#include "mutate/snapshot_builder.h"
#include "net/client.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/net_util.h"
#include "net/serve_handler.h"
#include "reformulate/reformulator.h"
#include "serve/search_service.h"
#include "serve/snapshot.h"
#include "serve_gate.h"
#include "text/query.h"

namespace orx::net {
namespace {

// --- frame codec -----------------------------------------------------------

TEST(FrameCodecTest, HeaderRoundTrip) {
  const std::string frame = EncodeFrame(Op::kSearch, 0x1122334455667788ull,
                                        "payload");
  ASSERT_GE(frame.size(), kHeaderSize);
  auto header = DecodeHeader(frame.data());
  ASSERT_TRUE(header.ok()) << header.status();
  EXPECT_EQ(header->op, Op::kSearch);
  EXPECT_EQ(header->request_id, 0x1122334455667788ull);
  EXPECT_EQ(header->payload_size, 7u);
  EXPECT_EQ(frame.substr(kHeaderSize), "payload");
}

TEST(FrameCodecTest, HeaderRejectsBadMagicVersionOpAndOversize) {
  std::string good = EncodeFrame(Op::kPing, 1, "");
  {
    std::string bad = good;
    bad[0] = 'X';
    auto header = DecodeHeader(bad.data());
    ASSERT_FALSE(header.ok());
    EXPECT_EQ(header.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(header.status().ToString().find("magic"), std::string::npos);
  }
  for (const int version : {1, 99}) {
    // Version 1 is the previous layout, refused like any other: one
    // layout per version, so a peer is understood whole or not at all.
    std::string bad = good;
    bad[4] = static_cast<char>(version);
    auto header = DecodeHeader(bad.data());
    ASSERT_FALSE(header.ok());
    EXPECT_EQ(header.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(header.status().message().find("unsupported frame version " +
                                             std::to_string(version)),
              std::string::npos)
        << header.status();
  }
  {
    std::string bad = good;
    bad[5] = 42;  // op beyond kError
    EXPECT_FALSE(DecodeHeader(bad.data()).ok());
  }
  {
    // payload_size above the decoder's bound is refused before any
    // allocation could happen.
    std::string bad = good;
    const uint32_t huge = kMaxPayload + 1;
    std::memcpy(&bad[16], &huge, sizeof(huge));
    auto header = DecodeHeader(bad.data());
    ASSERT_FALSE(header.ok());
    EXPECT_EQ(header.status().code(), StatusCode::kDataLoss);
  }
}

TEST(FrameCodecTest, SearchRequestRoundTrip) {
  SearchRequest request;
  request.query = "data cube olap";
  request.k = 25;
  request.deadline_seconds = 1.5;
  auto decoded = DecodeSearchRequest(EncodeSearchRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->query, request.query);
  EXPECT_EQ(decoded->k, request.k);
  EXPECT_EQ(decoded->deadline_seconds, request.deadline_seconds);
}

TEST(FrameCodecTest, SearchResponseRoundTrip) {
  SearchResponse response;
  for (int i = 0; i < 3; ++i) {
    WireResult r;
    r.node = static_cast<uint64_t>(i) * 17;
    r.score = 0.25 / (i + 1);
    r.type_label = "paper";
    r.display_label = "Title #" + std::to_string(i);
    response.results.push_back(std::move(r));
  }
  response.iterations = 12;
  response.cache_hit = true;
  response.coalesced = false;
  response.snapshot_version = 7;
  response.total_seconds = 0.0625;
  auto decoded = DecodeSearchResponse(EncodeSearchResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->results.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(decoded->results[i].node, response.results[i].node);
    EXPECT_EQ(decoded->results[i].score, response.results[i].score);
    EXPECT_EQ(decoded->results[i].display_label,
              response.results[i].display_label);
  }
  EXPECT_EQ(decoded->iterations, 12u);
  EXPECT_TRUE(decoded->cache_hit);
  EXPECT_EQ(decoded->snapshot_version, 7u);
  EXPECT_EQ(decoded->total_seconds, 0.0625);
}

TEST(FrameCodecTest, RemainingPayloadCodecsRoundTrip) {
  {
    ExplainRequest request{"data cube", 3};
    auto decoded = DecodeExplainRequest(EncodeExplainRequest(request));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->query, "data cube");
    EXPECT_EQ(decoded->target_rank, 3u);
  }
  {
    ExplainResponse response{"subgraph text", 9, 0.5, 0.25};
    auto decoded = DecodeExplainResponse(EncodeExplainResponse(response));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->text, "subgraph text");
    EXPECT_EQ(decoded->iterations, 9u);
  }
  {
    ReformulateRequest request{"data", {1, 4, 9}};
    auto decoded =
        DecodeReformulateRequest(EncodeReformulateRequest(request));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->feedback_ranks, (std::vector<uint32_t>{1, 4, 9}));
  }
  {
    ReformulateResponse response;
    response.reformulated_query = "data mining:0.5";
    response.top_expansion_terms = {{"mining", 0.5}, {"olap", 0.25}};
    response.reformulation_seconds = 0.125;
    auto decoded =
        DecodeReformulateResponse(EncodeReformulateResponse(response));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->reformulated_query, "data mining:0.5");
    ASSERT_EQ(decoded->top_expansion_terms.size(), 2u);
    EXPECT_EQ(decoded->top_expansion_terms[1].first, "olap");
    EXPECT_EQ(decoded->top_expansion_terms[1].second, 0.25);
  }
  {
    ValidateResponse response{false, "edge 7 dangling"};
    auto decoded = DecodeValidateResponse(EncodeValidateResponse(response));
    ASSERT_TRUE(decoded.ok());
    EXPECT_FALSE(decoded->ok);
    EXPECT_EQ(decoded->report, "edge 7 dangling");
  }
  {
    MetricsResponse response;
    response.serve.submitted = 100;
    response.serve.completed = 90;
    response.serve.latency_p99 = 0.25;
    response.frames_received = 123;
    response.error_frames_sent = 4;
    auto decoded = DecodeMetricsResponse(EncodeMetricsResponse(response));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->serve.submitted, 100u);
    EXPECT_EQ(decoded->serve.completed, 90u);
    EXPECT_EQ(decoded->serve.latency_p99, 0.25);
    EXPECT_EQ(decoded->frames_received, 123u);
    EXPECT_EQ(decoded->error_frames_sent, 4u);
  }
  {
    auto decoded = DecodeErrorResponse(
        EncodeErrorResponse(UnavailableError("admission queue full")));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->code, StatusCode::kUnavailable);
    EXPECT_EQ(decoded->message, "admission queue full");
  }
  {
    // Write-side metrics ride at the end of the payload and must
    // round-trip alongside the serve counters.
    MetricsResponse response;
    response.mutate_accepted = 11;
    response.mutate_rejected = 2;
    response.mutate_queued = 3;
    response.snapshots_published = 5;
    response.epochs_live = 1;
    response.rank_terms_reused = 40;
    response.rank_terms_refreshed = 8;
    auto decoded = DecodeMetricsResponse(EncodeMetricsResponse(response));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->mutate_accepted, 11u);
    EXPECT_EQ(decoded->mutate_rejected, 2u);
    EXPECT_EQ(decoded->mutate_queued, 3u);
    EXPECT_EQ(decoded->snapshots_published, 5u);
    EXPECT_EQ(decoded->epochs_live, 1u);
    EXPECT_EQ(decoded->rank_terms_reused, 40u);
    EXPECT_EQ(decoded->rank_terms_refreshed, 8u);
  }
  {
    MutateRequest request;
    request.batch.mutations.push_back(
        mutate::Mutation::AddNode(2, {{"title", "wire paper"}}));
    request.batch.mutations.push_back(mutate::Mutation::AddEdge(7, 3, 1));
    request.batch.mutations.push_back(
        mutate::Mutation::UpdateNodeText(4, {{"title", "rev"}}));
    request.batch.mutations.push_back(mutate::Mutation::RemoveEdge(5, 6, 0));
    request.batch.mutations.push_back(mutate::Mutation::RemoveNode(9));
    auto decoded = DecodeMutateRequest(EncodeMutateRequest(request));
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_EQ(decoded->batch.mutations.size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(decoded->batch.mutations[i].kind,
                request.batch.mutations[i].kind)
          << i;
    }
    EXPECT_EQ(decoded->batch.mutations[0].attributes.size(), 1u);
    EXPECT_EQ(decoded->batch.mutations[0].attributes[0].value, "wire paper");
    EXPECT_EQ(decoded->batch.mutations[1].from, 7u);
    EXPECT_EQ(decoded->batch.mutations[1].to, 3u);
    EXPECT_EQ(decoded->batch.mutations[4].node, 9u);
  }
  {
    MutateResponse response{77, 4};
    auto decoded = DecodeMutateResponse(EncodeMutateResponse(response));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->sequence, 77u);
    EXPECT_EQ(decoded->queued, 4u);
  }
}

// Every strict prefix of a valid payload must decode to kDataLoss —
// never a crash, never silent acceptance. No prefix is a complete older
// layout: a payload has one layout per version.
template <typename Decode>
void ExpectEveryPrefixIsDataLoss(const std::string& payload, Decode decode,
                                 const char* codec) {
  for (size_t len = 0; len < payload.size(); ++len) {
    auto decoded = decode(payload.substr(0, len));
    ASSERT_FALSE(decoded.ok()) << codec << " prefix length " << len;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << codec << " prefix length " << len;
  }
}

TEST(FrameCodecTest, DecodersRejectEveryTruncation) {
  SearchResponse search;
  search.results.push_back({5, 0.5, "paper", "A Title"});
  search.tier_used = 2;
  search.error_bound = 1e-7;
  MetricsResponse metrics;
  metrics.serve.tier_cached = 3;
  MutateRequest mutate;
  mutate.batch.mutations.push_back(
      mutate::Mutation::AddNode(2, {{"title", "wire paper"}}));
  mutate.batch.mutations.push_back(mutate::Mutation::RemoveNode(9));

  ExpectEveryPrefixIsDataLoss(
      EncodeSearchRequest({"data cube", 10, 0.5, 1}), DecodeSearchRequest,
      "search request");
  ExpectEveryPrefixIsDataLoss(EncodeSearchResponse(search),
                              DecodeSearchResponse, "search response");
  ExpectEveryPrefixIsDataLoss(EncodeExplainRequest({"data cube", 3}),
                              DecodeExplainRequest, "explain request");
  ExpectEveryPrefixIsDataLoss(
      EncodeExplainResponse({"subgraph text", 9, 0.5, 0.25}),
      DecodeExplainResponse, "explain response");
  ExpectEveryPrefixIsDataLoss(EncodeReformulateRequest({"data", {1, 4}}),
                              DecodeReformulateRequest,
                              "reformulate request");
  ExpectEveryPrefixIsDataLoss(
      EncodeReformulateResponse({"data mining:0.5", {{"mining", 0.5}}, 0.1}),
      DecodeReformulateResponse, "reformulate response");
  ExpectEveryPrefixIsDataLoss(EncodeValidateResponse({true, "snapshot OK"}),
                              DecodeValidateResponse, "validate response");
  ExpectEveryPrefixIsDataLoss(EncodeMetricsResponse(metrics),
                              DecodeMetricsResponse, "metrics response");
  ExpectEveryPrefixIsDataLoss(EncodeMutateRequest(mutate),
                              DecodeMutateRequest, "mutate request");
  ExpectEveryPrefixIsDataLoss(EncodeMutateResponse({77, 4}),
                              DecodeMutateResponse, "mutate response");
  ExpectEveryPrefixIsDataLoss(
      EncodeErrorResponse(UnavailableError("queue full")),
      DecodeErrorResponse, "error response");
}

TEST(FrameCodecTest, SearchRequestNamesOnlyAutoOrExact) {
  SearchRequest request;
  request.query = "mining";
  request.k = 10;
  request.deadline_seconds = 0.25;
  for (const int tier : {0, 1}) {
    request.tier = static_cast<uint8_t>(tier);
    const std::string payload = EncodeSearchRequest(request);
    // query (u32 length + 6 bytes), k, deadline, tier.
    EXPECT_EQ(payload.size(), 4u + 6 + 4 + 8 + 1);
    auto decoded = DecodeSearchRequest(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->tier, tier);
  }

  // 2 is kCached, which only reports an answer; above it is no tier.
  const std::string full = EncodeSearchRequest(request);
  for (const int value : {2, 3, 4, 9}) {
    std::string bad = full;
    bad.back() = static_cast<char>(value);
    auto rejected = DecodeSearchRequest(bad);
    ASSERT_FALSE(rejected.ok()) << "tier " << value;
    EXPECT_EQ(rejected.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(rejected.status().message().find("search tier " +
                                               std::to_string(value)),
              std::string::npos)
        << rejected.status();
  }
}

TEST(FrameCodecTest, SearchResponseTierFieldsRoundTrip) {
  SearchResponse response;
  response.iterations = 4;
  response.tier_used = 2;  // a compressed cache hit, with a live bound
  response.error_bound = 1.5e-7;
  const std::string payload = EncodeSearchResponse(response);
  // count, iterations, cache_hit, coalesced, snapshot_version,
  // total_seconds, tier_used, error_bound.
  EXPECT_EQ(payload.size(), 4u + 4 + 1 + 1 + 8 + 8 + 1 + 8);
  auto decoded = DecodeSearchResponse(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->tier_used, 2);
  EXPECT_EQ(decoded->error_bound, 1.5e-7);

  // An answer reports exact (1) or cached (2), never auto or above.
  const size_t tier_offset = payload.size() - 9;
  for (const int value : {0, 3, 0xFF}) {
    std::string bad = payload;
    bad[tier_offset] = static_cast<char>(value);
    auto rejected = DecodeSearchResponse(bad);
    ASSERT_FALSE(rejected.ok()) << "tier_used " << value;
    EXPECT_EQ(rejected.status().code(), StatusCode::kDataLoss);
  }

  MetricsResponse metrics;
  metrics.serve.tier_exact = 5;
  metrics.serve.tier_cached = 7;
  metrics.serve.miss_error_budget = 3;
  metrics.serve.tier_exact_p99 = 0.02;
  metrics.serve.tier_cached_p50 = 0.004;
  const std::string metrics_payload = EncodeMetricsResponse(metrics);
  // 8 request counters, 6 latency doubles, 15 front-end and write-path
  // counters, then the tier group: 7 counters and 4 doubles.
  EXPECT_EQ(metrics_payload.size(), (8u + 6 + 15 + 7 + 4) * 8);
  auto metrics_decoded = DecodeMetricsResponse(metrics_payload);
  ASSERT_TRUE(metrics_decoded.ok());
  EXPECT_EQ(metrics_decoded->serve.tier_exact, 5u);
  EXPECT_EQ(metrics_decoded->serve.tier_cached, 7u);
  EXPECT_EQ(metrics_decoded->serve.miss_error_budget, 3u);
  EXPECT_EQ(metrics_decoded->serve.tier_exact_p99, 0.02);
  EXPECT_EQ(metrics_decoded->serve.tier_cached_p50, 0.004);
}

// Bools are the byte 0 or 1, so an accepted payload re-encodes to the
// same bytes; any other value is refused with the field's name.
TEST(FrameCodecTest, SearchResponseCacheHitByteTwoIsRefused) {
  SearchResponse response;
  response.cache_hit = true;
  const std::string payload = EncodeSearchResponse(response);
  // count (no results), iterations, then the cache_hit byte.
  const size_t cache_hit_offset = 4 + 4;
  ASSERT_EQ(payload[cache_hit_offset], 1);
  std::string bad = payload;
  bad[cache_hit_offset] = 2;
  auto rejected = DecodeSearchResponse(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(rejected.status().message().find("cache_hit"), std::string::npos)
      << rejected.status();

  std::string validate = EncodeValidateResponse({true, "ok"});
  validate[0] = 2;
  EXPECT_EQ(DecodeValidateResponse(validate).status().code(),
            StatusCode::kDataLoss);
}

TEST(FrameCodecTest, DecodersRejectTrailingGarbage) {
  const std::string payload =
      EncodeSearchRequest(SearchRequest{"data", 10, 0.0});
  auto decoded = DecodeSearchRequest(payload + "x");
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(FrameCodecTest, HostileCountsAreBoundedBeforeAllocation) {
  // A reformulate request claiming 2^31 feedback ranks in a 12-byte
  // payload must be rejected by the count bound, not by attempting the
  // allocation.
  std::string payload;
  AppendString(&payload, "q");
  AppendU32(&payload, 0x7FFFFFFFu);
  auto decoded = DecodeReformulateRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

// --- server lifecycle over loopback ---------------------------------------

ServerOptions TestServerOptions() {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.num_workers = 2;
  options.tick_interval_ms = 20;
  return options;
}

/// An echo handler: answers every frame with the same op + payload.
Server::FrameHandler EchoHandler() {
  return [](Frame frame, ResponderPtr respond) {
    respond->Send(EncodeFrame(frame.header.op, frame.header.request_id,
                              frame.payload));
  };
}

TEST(NetServerTest, LifecycleAndPing) {
  Server server(TestServerOptions(), EchoHandler());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Ping().ok());
  }
  client.Close();
  server.Shutdown();
  server.Shutdown();  // idempotent

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.frames_received, 10u);
  EXPECT_EQ(stats.frames_sent, 10u);
  EXPECT_EQ(stats.unanswered_frames, 0u);
  EXPECT_EQ(stats.decode_errors, 0u);
}

TEST(NetServerTest, PipelinedFramesAllAnswered) {
  Server server(TestServerOptions(), EchoHandler());
  ASSERT_TRUE(server.Start().ok());
  auto fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());

  // Fire 64 pipelined frames in one write burst, then collect 64
  // responses; ids must come back bijectively (order is unspecified).
  std::string burst;
  for (uint64_t id = 1; id <= 64; ++id) {
    burst += EncodeFrame(Op::kPing, id, "p" + std::to_string(id));
  }
  ASSERT_TRUE(WriteAll(*fd, burst.data(), burst.size()).ok());
  std::vector<bool> seen(65, false);
  for (int i = 0; i < 64; ++i) {
    char header_bytes[kHeaderSize];
    ASSERT_TRUE(ReadAll(*fd, header_bytes, kHeaderSize, "header").ok());
    auto header = DecodeHeader(header_bytes);
    ASSERT_TRUE(header.ok());
    std::string payload(header->payload_size, '\0');
    ASSERT_TRUE(
        ReadAll(*fd, payload.data(), payload.size(), "payload").ok());
    ASSERT_GE(header->request_id, 1u);
    ASSERT_LE(header->request_id, 64u);
    EXPECT_FALSE(seen[header->request_id]);
    seen[header->request_id] = true;
    EXPECT_EQ(payload, "p" + std::to_string(header->request_id));
  }
  close(*fd);
  server.Shutdown();
  EXPECT_EQ(server.stats().frames_received, 64u);
  EXPECT_EQ(server.stats().unanswered_frames, 0u);
}

TEST(NetServerTest, MalformedHeaderAnsweredWithErrorFrameThenClose) {
  Server server(TestServerOptions(), EchoHandler());
  ASSERT_TRUE(server.Start().ok());
  auto fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());

  std::string garbage(kHeaderSize, '\xFF');
  ASSERT_TRUE(WriteAll(*fd, garbage.data(), garbage.size()).ok());

  char header_bytes[kHeaderSize];
  ASSERT_TRUE(ReadAll(*fd, header_bytes, kHeaderSize, "header").ok());
  auto header = DecodeHeader(header_bytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->op, Op::kError);
  std::string payload(header->payload_size, '\0');
  ASSERT_TRUE(ReadAll(*fd, payload.data(), payload.size(), "payload").ok());
  auto error = DecodeErrorResponse(payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, StatusCode::kDataLoss);

  // Framing is lost, so the server closes after the error frame: the
  // next read sees EOF.
  char byte;
  Status eof = ReadAll(*fd, &byte, 1, "post-error");
  EXPECT_FALSE(eof.ok());
  close(*fd);
  server.Shutdown();
  EXPECT_EQ(server.stats().decode_errors, 1u);
  EXPECT_EQ(server.stats().error_frames_sent, 1u);
}

// A peer speaking the previous protocol version is refused once, at its
// first header: one kError/kDataLoss frame naming version 1, then close.
TEST(NetServerTest, Version1HeaderAnsweredWithOneErrorFrameThenClose) {
  Server server(TestServerOptions(), EchoHandler());
  ASSERT_TRUE(server.Start().ok());
  auto fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());

  std::string frame = EncodeFrame(Op::kPing, 7, "");
  frame[4] = 1;  // version
  ASSERT_TRUE(WriteAll(*fd, frame.data(), frame.size()).ok());

  char header_bytes[kHeaderSize];
  ASSERT_TRUE(ReadAll(*fd, header_bytes, kHeaderSize, "header").ok());
  auto header = DecodeHeader(header_bytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->op, Op::kError);
  std::string payload(header->payload_size, '\0');
  ASSERT_TRUE(ReadAll(*fd, payload.data(), payload.size(), "payload").ok());
  auto error = DecodeErrorResponse(payload);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, StatusCode::kDataLoss);
  EXPECT_NE(error->message.find("unsupported frame version 1"),
            std::string::npos)
      << error->message;

  char byte;
  EXPECT_FALSE(ReadAll(*fd, &byte, 1, "post-error").ok());
  close(*fd);
  server.Shutdown();
  EXPECT_EQ(server.stats().decode_errors, 1u);
  EXPECT_EQ(server.stats().error_frames_sent, 1u);
}

TEST(NetServerTest, OversizedPayloadHeaderRejected) {
  ServerOptions options = TestServerOptions();
  options.max_payload = 1024;
  Server server(options, EchoHandler());
  ASSERT_TRUE(server.Start().ok());
  auto fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());

  std::string frame;
  AppendHeader(&frame, Op::kPing, 1, 2048);  // above the server's bound
  ASSERT_TRUE(WriteAll(*fd, frame.data(), frame.size()).ok());
  char header_bytes[kHeaderSize];
  ASSERT_TRUE(ReadAll(*fd, header_bytes, kHeaderSize, "header").ok());
  auto header = DecodeHeader(header_bytes);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->op, Op::kError);
  close(*fd);
  server.Shutdown();
}

TEST(NetServerTest, IdleConnectionsAreSweptByTimeout) {
  ServerOptions options = TestServerOptions();
  options.idle_timeout_seconds = 0.15;
  Server server(options, EchoHandler());
  ASSERT_TRUE(server.Start().ok());

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Ping().ok());

  // Wait out the idle sweep, then expect the connection to be gone.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.stats().idle_closes == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.stats().idle_closes, 1u);
  EXPECT_FALSE(client.Ping().ok());
  server.Shutdown();
}

TEST(NetServerTest, GracefulShutdownAnswersInflightFrames) {
  // The handler parks each frame's responder on a detached timer thread;
  // Shutdown() must wait for those sends instead of dropping them.
  Server server(TestServerOptions(), [](Frame frame, ResponderPtr respond) {
    std::thread([frame = std::move(frame),
                 respond = std::move(respond)]() mutable {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      respond->Send(EncodeFrame(frame.header.op, frame.header.request_id,
                                frame.payload));
    }).detach();
  });
  ASSERT_TRUE(server.Start().ok());

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::atomic<bool> answered{false};
  std::thread caller([&] {
    if (client.Ping().ok()) answered.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.Shutdown();
  caller.join();
  EXPECT_TRUE(answered.load());
  EXPECT_EQ(server.stats().unanswered_frames, 0u);
}

TEST(NetServerTest, ShutdownFromAnotherThreadBeforeStart) {
  // Regression: Shutdown() before Start() used to tear down acceptor
  // state that had never been set up. It must be a safe no-op — from a
  // foreign thread, the worst case for the started_ handshake — and
  // must not poison a later Start()/Shutdown() cycle.
  Server server(TestServerOptions(), EchoHandler());
  std::thread early([&] { server.Shutdown(); });
  early.join();

  ASSERT_TRUE(server.Start().ok());
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.Ping().ok());
  client.Close();
  server.Shutdown();
  EXPECT_EQ(server.stats().unanswered_frames, 0u);
}

// Forked death tests don't coexist with TSan's runtime; the loop-thread
// contract is still exercised indirectly by every server test there.
#if defined(__SANITIZE_THREAD__)
#define ORX_NET_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ORX_NET_TSAN_BUILD 1
#endif
#endif

#ifndef ORX_NET_TSAN_BUILD
TEST(NetServerTest, EventLoopRegistrationOffLoopThreadDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        EventLoop loop(/*tick=*/nullptr, /*tick_interval_ms=*/20);
        std::atomic<bool> bound{false};
        std::thread loop_thread([&] { loop.Run(); });
        // After this task runs, Run() has bound the loop thread id and
        // the loop-thread-only contract is armed.
        loop.RunInLoop([&] { bound.store(true); });
        while (!bound.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        IgnoreError(
            loop.AddFd(0, EPOLLIN, [](uint32_t) {}));  // wrong thread: aborts
        loop.Stop();
        loop_thread.join();
      },
      "AddFd called off the loop thread");
}
#endif

// --- full protocol stack over a DBLP snapshot ------------------------------

std::shared_ptr<const serve::ServeSnapshot> MakeSnapshot(uint32_t papers,
                                                         uint64_t seed) {
  auto owner = std::make_shared<datasets::DblpDataset>(datasets::GenerateDblp(
      datasets::DblpGeneratorConfig::Tiny(papers, seed)));
  graph::TransferRates rates = datasets::DblpGroundTruthRates(
      owner->dataset.schema(), owner->types);
  return std::make_shared<serve::ServeSnapshot>(serve::SnapshotFromOwner(
      owner, owner->dataset.data(), owner->dataset.authority(),
      owner->dataset.corpus(), std::move(rates)));
}

/// The `count` corpus terms with the highest document frequency (ties
/// by term id) — queries guaranteed to have a non-empty base set.
std::vector<std::string> HeadTerms(const text::Corpus& corpus,
                                   size_t count) {
  std::vector<text::TermId> ids(corpus.vocab_size());
  for (text::TermId t = 0; t < ids.size(); ++t) ids[t] = t;
  std::stable_sort(ids.begin(), ids.end(), [&](text::TermId a,
                                               text::TermId b) {
    return corpus.Df(a) > corpus.Df(b);
  });
  std::vector<std::string> terms;
  for (size_t i = 0; i < ids.size() && i < count; ++i) {
    terms.push_back(corpus.TermString(ids[i]));
  }
  return terms;
}

std::string HeadTerm(const text::Corpus& corpus) {
  return HeadTerms(corpus, 1).at(0);
}

struct FullStack {
  std::shared_ptr<const serve::ServeSnapshot> snapshot;
  std::unique_ptr<serve::SearchService> service;
  std::unique_ptr<ServeHandler> handler;
  std::unique_ptr<Server> server;

  explicit FullStack(serve::SearchService::Options service_options = {},
                     ServerOptions server_options = TestServerOptions(),
                     uint32_t papers = 80)
      : FullStack(MakeSnapshot(papers, 11), service_options,
                  server_options) {}

  FullStack(std::shared_ptr<const serve::ServeSnapshot> served,
            serve::SearchService::Options service_options,
            ServerOptions server_options) {
    snapshot = std::move(served);
    service = std::make_unique<serve::SearchService>(snapshot,
                                                     service_options);
    handler = std::make_unique<ServeHandler>(service.get());
    server = std::make_unique<Server>(
        server_options, [this](Frame frame, ResponderPtr respond) {
          handler->Handle(std::move(frame), std::move(respond));
        });
    handler->set_server_stats(
        [server = server.get()] { return server->stats(); });
  }
};

TEST(NetFullStackTest, SearchExplainReformulateValidateMetrics) {
  FullStack stack;
  ASSERT_TRUE(stack.server->Start().ok());
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());

  const std::string query = HeadTerm(*stack.snapshot->corpus);
  auto search = client.Search({query, 10, 0.0});
  ASSERT_TRUE(search.ok()) << search.status();
  ASSERT_FALSE(search->results.empty());
  for (size_t i = 1; i < search->results.size(); ++i) {
    EXPECT_GE(search->results[i - 1].score, search->results[i].score);
  }
  EXPECT_FALSE(search->results[0].display_label.empty());
  EXPECT_FALSE(search->results[0].type_label.empty());

  // The same query again is a result-cache hit end to end.
  auto again = client.Search({query, 10, 0.0});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
  ASSERT_EQ(again->results.size(), search->results.size());
  EXPECT_EQ(again->results[0].node, search->results[0].node);
  EXPECT_EQ(again->results[0].score, search->results[0].score);

  auto explain = client.Explain({query, 1});
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_FALSE(explain->text.empty());

  auto reform = client.Reformulate({query, {1}});
  ASSERT_TRUE(reform.ok()) << reform.status();
  EXPECT_FALSE(reform->reformulated_query.empty());

  auto validate = client.Validate();
  ASSERT_TRUE(validate.ok());
  EXPECT_TRUE(validate->ok) << validate->report;

  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(metrics->serve.submitted, 4u);
  EXPECT_LE(metrics->serve.completed, metrics->serve.submitted);
  EXPECT_GT(metrics->frames_received, 0u);

  auto empty = client.Search({"", 10, 0.0});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  stack.server->Shutdown();
}

TEST(NetFullStackTest, AdmissionOverflowArrivesAsUnavailableErrorFrame) {
  // max_pending = 0 rejects every execution at admission, so no flight
  // ever forms; with the cache off, every search must come back as a
  // kError/kUnavailable frame — never silence, never a dropped
  // connection.
  serve::SearchService::Options options;
  options.max_pending = 0;
  options.result_cache_entries = 0;
  FullStack stack(options);
  ASSERT_TRUE(stack.server->Start().ok());
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());

  const std::string query = HeadTerm(*stack.snapshot->corpus);
  for (int i = 0; i < 5; ++i) {
    auto search = client.Search({query, 10, 0.0});
    ASSERT_FALSE(search.ok());
    EXPECT_EQ(search.status().code(), StatusCode::kUnavailable);
  }
  // The rejections all flowed through the same still-healthy connection.
  ASSERT_TRUE(client.Ping().ok());
  stack.server->Shutdown();
  EXPECT_EQ(stack.server->stats().error_frames_sent, 5u);
  EXPECT_EQ(stack.server->stats().unanswered_frames, 0u);
}

// Regression: one kSearch frame with k = 0xFFFFFFFF made the top-k heap
// reserve 64 GiB on a pool worker, and the bad_alloc aborted the server.
// The k is now clamped to the node count: the whole ranked list comes
// back, and the connection keeps answering.
TEST(NetFullStackTest, HugeKReturnsTheFullRankedList) {
  FullStack stack;
  ASSERT_TRUE(stack.server->Start().ok());
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());

  const std::string query = HeadTerm(*stack.snapshot->corpus);
  auto search = client.Search({query, 0xFFFFFFFFu, 0.0});
  ASSERT_TRUE(search.ok()) << search.status();
  EXPECT_EQ(search->results.size(), stack.snapshot->data->num_nodes());
  for (size_t i = 1; i < search->results.size(); ++i) {
    EXPECT_GE(search->results[i - 1].score, search->results[i].score);
  }
  EXPECT_TRUE(client.Ping().ok());
  stack.server->Shutdown();
  EXPECT_EQ(stack.server->stats().unanswered_frames, 0u);
}

// kCached folded into kAuto, end to end: a kAuto search the rank cache
// answers arrives as tier_used 2, a kExact one runs the power iteration,
// and the metrics count one execution of each tier.
TEST(NetFullStackTest, RankCacheAnswerArrivesAsTierCached) {
  FullStack stack;
  const std::string query = HeadTerm(*stack.snapshot->corpus);
  auto with_cache = std::make_shared<serve::ServeSnapshot>(*stack.snapshot);
  with_cache->rank_cache = std::make_shared<const core::RankCache>(
      core::RankCache::BuildForTerms(*with_cache->authority,
                                     *with_cache->corpus, with_cache->rates,
                                     {query}, core::RankCache::Options{}));
  stack.service->SwapSnapshot(with_cache);
  ASSERT_TRUE(stack.server->Start().ok());
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());

  auto cache_answer = client.Search({query, 10, 0.0});
  ASSERT_TRUE(cache_answer.ok()) << cache_answer.status();
  EXPECT_EQ(cache_answer->tier_used, 2);
  EXPECT_EQ(cache_answer->iterations, 0u);
  auto exact = client.Search({query, 10, 0.0, 1});
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_EQ(exact->tier_used, 1);
  EXPECT_GT(exact->iterations, 0u);

  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->serve.tier_cached, 1u);
  EXPECT_EQ(metrics->serve.tier_exact, 1u);
  stack.server->Shutdown();
}

TEST(NetFullStackTest, ConcurrentClientsAllAnswered) {
  FullStack stack;
  ASSERT_TRUE(stack.server->Start().ok());
  const std::string query = HeadTerm(*stack.snapshot->corpus);
  const uint16_t port = stack.server->port();

  constexpr int kThreads = 6;
  constexpr int kCallsPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      BlockingClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        failures.fetch_add(kCallsPerThread);
        return;
      }
      for (int i = 0; i < kCallsPerThread; ++i) {
        const bool ping = (i + t) % 3 == 0;
        const Status status =
            ping ? client.Ping()
                 : client.Search({query, 10, 0.0}).status();
        // kUnavailable is an acceptable answer under load; silence or
        // transport errors are not.
        if (!status.ok() && status.code() != StatusCode::kUnavailable) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  stack.server->Shutdown();

  const ServerStats stats = stack.server->stats();
  EXPECT_EQ(stats.frames_received, kThreads * kCallsPerThread);
  EXPECT_EQ(stats.frames_sent, kThreads * kCallsPerThread);
  EXPECT_EQ(stats.unanswered_frames, 0u);
}

TEST(NetFullStackTest, MutateOnReadOnlyServerIsFailedPrecondition) {
  // A handler without mutation hooks is a read-only server: kMutate must
  // come back as kError/kFailedPrecondition on a still-healthy
  // connection, never silence or a close.
  FullStack stack;
  ASSERT_TRUE(stack.server->Start().ok());
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());

  MutateRequest request;
  request.batch.mutations.push_back(
      mutate::Mutation::UpdateNodeText(0, {{"title", "nope"}}));
  auto response = client.Mutate(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(client.Ping().ok());
  stack.server->Shutdown();
  EXPECT_EQ(stack.server->stats().unanswered_frames, 0u);
}

TEST(NetFullStackTest, MutateAcceptedAndBecomesSearchableOverTheWire) {
  // The whole write path end to end over loopback: kMutate append ->
  // builder drain -> snapshot publication -> the new document answers a
  // search on the SAME connection, and kMetrics reports the write-side
  // counters.
  auto owner = std::make_shared<datasets::DblpDataset>(datasets::GenerateDblp(
      datasets::DblpGeneratorConfig::Tiny(60, 13)));
  graph::TransferRates rates = datasets::DblpGroundTruthRates(
      owner->dataset.schema(), owner->types);
  auto snapshot = std::make_shared<serve::ServeSnapshot>(
      serve::SnapshotFromOwner(owner, owner->dataset.data(),
                               owner->dataset.authority(),
                               owner->dataset.corpus(), std::move(rates)));

  serve::SearchService service(snapshot, {});
  mutate::DeltaLog log(owner->dataset.schema());
  mutate::EpochManager epochs;
  mutate::SnapshotBuilder builder(&service, &log, &epochs, snapshot, {});
  ServeHandler handler(&service);
  handler.set_mutation_hooks({&log, &epochs, &builder});
  Server server(TestServerOptions(),
                [&handler](Frame frame, ResponderPtr respond) {
                  handler.Handle(std::move(frame), std::move(respond));
                });
  builder.Start();
  ASSERT_TRUE(server.Start().ok());
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  // Unknown term before the write.
  auto before = client.Search({"xylocarp", 10, 0.0});
  const bool absent_before =
      !before.ok() || before->results.empty();
  EXPECT_TRUE(absent_before);

  MutateRequest request;
  request.batch.mutations.push_back(mutate::Mutation::AddNode(
      owner->types.paper, {{"title", "xylocarp indexing methods"}}));
  auto accepted = client.Mutate(request);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  EXPECT_GT(accepted->sequence, 0u);

  // Acceptance is log-side only; poll until the covering snapshot
  // publishes and the document becomes visible to readers.
  ASSERT_TRUE(builder.WaitForSequence(accepted->sequence, 30.0));
  auto after = client.Search({"xylocarp", 10, 0.0});
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_FALSE(after->results.empty());
  EXPECT_EQ(after->results[0].display_label, "xylocarp indexing methods");
  EXPECT_GT(after->snapshot_version, 1u);

  // A statically invalid batch (unknown edge type — node-id dangling is
  // an apply-time concern) is rejected at the log with kInvalidArgument
  // and counted.
  MutateRequest bad;
  bad.batch.mutations.push_back(mutate::Mutation::AddEdge(0, 1, 250));
  auto rejected = client.Mutate(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok());
  EXPECT_GE(metrics->mutate_accepted, 1u);
  EXPECT_GE(metrics->mutate_rejected, 1u);
  EXPECT_GE(metrics->snapshots_published, 1u);
  EXPECT_GE(metrics->epochs_live, 1u);

  server.Shutdown();
  builder.Stop();
  EXPECT_EQ(server.stats().unanswered_frames, 0u);
  EXPECT_GE(builder.stats().publications, 1u);
}

// --- explain and reformulate as admitted pool stages ----------------------

/// Writes one request frame to a raw blocking connection.
void SendFrame(int fd, Op op, uint64_t id, const std::string& payload) {
  const std::string frame = EncodeFrame(op, id, payload);
  ASSERT_TRUE(WriteAll(fd, frame.data(), frame.size()).ok());
}

/// Whether a response starts to arrive on `fd` within `ms` milliseconds.
bool AnswerArrives(int fd, int ms) {
  pollfd p{fd, POLLIN, 0};
  return poll(&p, 1, ms) > 0;
}

/// Reads one whole response frame from a raw blocking connection.
StatusOr<Frame> ReadFrame(int fd) {
  char header_bytes[kHeaderSize];
  ORX_RETURN_IF_ERROR(ReadAll(fd, header_bytes, kHeaderSize, "header"));
  auto header = DecodeHeader(header_bytes);
  ORX_RETURN_IF_ERROR(header.status());
  Frame frame;
  frame.header = *header;
  frame.payload.resize(header->payload_size);
  ORX_RETURN_IF_ERROR(
      ReadAll(fd, frame.payload.data(), frame.payload.size(), "payload"));
  return frame;
}

/// The service's own search for `query`, run in-process with no deadline:
/// it warms the result cache that a later wire request of the same query
/// hits.
void WarmCache(serve::SearchService& service, const std::string& query) {
  serve::ServeRequest request;
  request.query = text::QueryVector(text::ParseQuery(query));
  request.deadline_seconds = -1.0;
  auto warm = service.Search(std::move(request));
  ASSERT_TRUE(warm.ok()) << warm.status();
}

/// Holds the service's pool: a gated search of `query` (one admission
/// slot) parks its worker until Release(), or until the hold goes out of
/// scope, so a failed assertion never leaves the service undrainable.
class PoolHold {
 public:
  PoolHold(serve::SearchService& service, const serve::ServeSnapshot& snap,
           const std::string& query) {
    serve::ServeRequest blocker;
    blocker.query = text::QueryVector(text::ParseQuery(query));
    blocker.options = serve::GatedOptions(snap, gate_);
    blocker.deadline_seconds = -1.0;
    held_ = service.Submit(std::move(blocker));
    gate_->WaitUntilEntered();
  }
  ~PoolHold() { gate_->Open(); }

  /// Opens the gate; returns the gated search's response.
  StatusOr<serve::ServeResponse> Release() {
    gate_->Open();
    return held_.get();
  }

 private:
  std::shared_ptr<serve::Gate> gate_ = std::make_shared<serve::Gate>();
  std::future<StatusOr<serve::ServeResponse>> held_;
};

/// The paper's session computed in-process on `snap`: a fresh search of
/// `query`, then the explaining subgraph of rank 1 and the reformulation
/// with `feedback_ranks` — the goldens the wire answers must equal. Both
/// use the snapshot's damping, as the server does, unless `damping` says
/// otherwise for the reformulation.
struct SessionGolden {
  std::string explain_text;
  std::string reformulated_query;
};

SessionGolden GoldenSession(const serve::ServeSnapshot& snap,
                            const std::string& query_text,
                            const std::vector<uint32_t>& feedback_ranks,
                            std::optional<double> damping = std::nullopt) {
  const text::QueryVector query(text::ParseQuery(query_text));
  core::Searcher searcher(*snap.data, *snap.authority, *snap.corpus);
  auto result = searcher.Search(query, snap.rates, snap.default_options);
  EXPECT_TRUE(result.ok()) << result.status();
  auto base = core::BuildBaseSet(*snap.corpus, query,
                                 core::BaseSetMode::kIrWeighted,
                                 snap.default_options.bm25);
  EXPECT_TRUE(base.ok()) << base.status();
  SessionGolden golden;
  if (!result.ok() || !base.ok() || result->top.size() < 2) return golden;
  explain::Explainer explainer(*snap.data, *snap.authority);
  auto explanation = explainer.Explain(
      result->top[0].node, *base, result->scores, snap.rates,
      snap.default_options.objectrank.damping, explain::ExplainOptions{});
  EXPECT_TRUE(explanation.ok()) << explanation.status();
  if (explanation.ok()) {
    golden.explain_text = explanation->subgraph.ToString(*snap.data);
  }
  std::vector<graph::NodeId> feedback;
  for (uint32_t rank : feedback_ranks) {
    feedback.push_back(result->top[rank - 1].node);
  }
  reform::Reformulator reformulator(*snap.data, *snap.authority,
                                    *snap.corpus);
  reform::ReformulationOptions options;
  options.damping =
      damping.value_or(snap.default_options.objectrank.damping);
  auto reformulated = reformulator.Reformulate(
      query, snap.rates, *base, result->scores, feedback, options);
  EXPECT_TRUE(reformulated.ok()) << reformulated.status();
  if (reformulated.ok()) {
    golden.reformulated_query = reformulated->query.ToString();
  }
  return golden;
}

/// "[a, b, c] = [1.00, ...]" (QueryVector::ToString) -> "a b c".
std::string TermList(const std::string& rendered) {
  const size_t open = rendered.find('[');
  const size_t close = rendered.find(']');
  if (open == std::string::npos || close == std::string::npos) return "";
  std::string terms = rendered.substr(open + 1, close - open - 1);
  terms.erase(std::remove(terms.begin(), terms.end(), ','), terms.end());
  return terms;
}

TEST(NetFullStackTest, StagesRunOnTheSnapshotTheyWereAdmittedWith) {
  // A publication that adds nodes lands between a session's search and
  // its explain. The search is still answered from the entry retained
  // from version 1 (result_cache_versions = 2); explain and reformulate
  // must run on a result computed against the snapshot they run on, not
  // pair version 1's scores with the grown graph.
  FullStack stack;
  auto grown = MakeSnapshot(120, 11);
  ASSERT_GT(grown->data->num_nodes(), stack.snapshot->data->num_nodes());
  ASSERT_TRUE(stack.server->Start().ok());
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());

  const std::string query = HeadTerm(*stack.snapshot->corpus);
  auto before = client.Search({query, 10, 0.0});
  ASSERT_TRUE(before.ok()) << before.status();
  stack.service->SwapSnapshot(grown);
  auto retained = client.Search({query, 10, 0.0});
  ASSERT_TRUE(retained.ok()) << retained.status();
  EXPECT_TRUE(retained->cache_hit);
  EXPECT_EQ(retained->snapshot_version, 1u);

  const SessionGolden golden = GoldenSession(*grown, query, {1});
  auto explain = client.Explain({query, 1});
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_EQ(explain->text, golden.explain_text);
  auto reform = client.Reformulate({query, {1}});
  ASSERT_TRUE(reform.ok()) << reform.status();
  EXPECT_EQ(reform->reformulated_query, golden.reformulated_query);
  stack.server->Shutdown();
  EXPECT_EQ(stack.server->stats().unanswered_frames, 0u);
}

TEST(NetFullStackTest, StageWaitsForThePoolNotTheLoop) {
  // One loop, one pool worker held by a gated search. A's explain of a
  // cached query must wait for the pool; meanwhile B's cached search on
  // the same loop is answered.
  serve::SearchService::Options options;
  options.num_threads = 1;
  ServerOptions one_loop = TestServerOptions();
  one_loop.num_workers = 1;
  FullStack stack(options, one_loop);
  ASSERT_TRUE(stack.server->Start().ok());
  const std::vector<std::string> terms = HeadTerms(*stack.snapshot->corpus, 2);
  ASSERT_EQ(terms.size(), 2u);
  WarmCache(*stack.service, terms[0]);
  PoolHold hold(*stack.service, *stack.snapshot, terms[1]);

  auto a = ConnectTcp("127.0.0.1", stack.server->port());
  ASSERT_TRUE(a.ok());
  SendFrame(*a, Op::kExplain, 1, EncodeExplainRequest({terms[0], 1}));
  BlockingClient b;
  ASSERT_TRUE(b.Connect("127.0.0.1", stack.server->port()).ok());
  auto search = b.Search({terms[0], 10, 0.0});
  ASSERT_TRUE(search.ok()) << search.status();
  EXPECT_TRUE(search->cache_hit);
  EXPECT_FALSE(AnswerArrives(*a, 200)) << "explain ran while the pool was held";

  ASSERT_TRUE(hold.Release().ok());
  auto explain = ReadFrame(*a);
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_EQ(explain->header.op, Op::kExplain);
  EXPECT_EQ(explain->header.request_id, 1u);
  close(*a);
  stack.server->Shutdown();
  EXPECT_EQ(stack.server->stats().unanswered_frames, 0u);
}

TEST(NetFullStackTest, StageFloodPastMaxPendingIsShedAsUnavailable) {
  // max_pending 2 with the pool held (slot 1): the first explain of a
  // cached query queues (slot 2); every further explain or reformulate
  // is shed at once with kError/kUnavailable.
  serve::SearchService::Options options;
  options.num_threads = 1;
  options.max_pending = 2;
  FullStack stack(options);
  ASSERT_TRUE(stack.server->Start().ok());
  const std::vector<std::string> terms = HeadTerms(*stack.snapshot->corpus, 2);
  ASSERT_EQ(terms.size(), 2u);
  WarmCache(*stack.service, terms[0]);
  PoolHold hold(*stack.service, *stack.snapshot, terms[1]);

  auto fd = ConnectTcp("127.0.0.1", stack.server->port());
  ASSERT_TRUE(fd.ok());
  SendFrame(*fd, Op::kExplain, 1, EncodeExplainRequest({terms[0], 1}));
  constexpr uint64_t kShed = 4;
  for (uint64_t id = 2; id < 2 + kShed; ++id) {
    if (id % 2 == 0) {
      SendFrame(*fd, Op::kExplain, id, EncodeExplainRequest({terms[0], 1}));
    } else {
      SendFrame(*fd, Op::kReformulate, id,
                EncodeReformulateRequest({terms[0], {1, 2}}));
    }
  }
  for (uint64_t i = 0; i < kShed; ++i) {
    auto frame = ReadFrame(*fd);
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_EQ(frame->header.request_id, 2 + i);
    ASSERT_EQ(frame->header.op, Op::kError);
    auto error = DecodeErrorResponse(frame->payload);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->code, StatusCode::kUnavailable);
  }
  EXPECT_FALSE(AnswerArrives(*fd, 100));  // the queued one still waits

  ASSERT_TRUE(hold.Release().ok());
  auto queued = ReadFrame(*fd);
  ASSERT_TRUE(queued.ok()) << queued.status();
  EXPECT_EQ(queued->header.op, Op::kExplain);
  EXPECT_EQ(queued->header.request_id, 1u);
  close(*fd);
  stack.server->Shutdown();
  EXPECT_EQ(stack.server->stats().unanswered_frames, 0u);
  EXPECT_EQ(stack.service->Snapshot().rejected, kShed);
}

TEST(NetFullStackTest, StagePastItsDeadlineAnswersDeadlineExceeded) {
  // The default deadline (50 ms, from submission) passes while the
  // explain of a cached query waits for the held pool; it is checked
  // when the stage is about to start.
  serve::SearchService::Options options;
  options.num_threads = 1;
  options.default_deadline_seconds = 0.05;
  FullStack stack(options);
  ASSERT_TRUE(stack.server->Start().ok());
  const std::vector<std::string> terms = HeadTerms(*stack.snapshot->corpus, 2);
  ASSERT_EQ(terms.size(), 2u);
  WarmCache(*stack.service, terms[0]);
  PoolHold hold(*stack.service, *stack.snapshot, terms[1]);

  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());
  StatusOr<ExplainResponse> explain = InternalError("never answered");
  std::thread caller([&] { explain = client.Explain({terms[0], 1}); });
  while (stack.service->Snapshot().submitted < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const bool released = hold.Release().ok();
  caller.join();
  EXPECT_TRUE(released);
  EXPECT_EQ(explain.status().code(), StatusCode::kDeadlineExceeded)
      << explain.status();
  EXPECT_EQ(stack.service->Snapshot().deadline_exceeded, 1u);
  stack.server->Shutdown();
  EXPECT_EQ(stack.server->stats().unanswered_frames, 0u);
}

TEST(NetFullStackTest, ConcurrentPaperSessionsMatchInProcessGoldens) {
  // Four connections over two loops, each running the paper's session
  // (search, explain rank 1, reformulate {1,2}, search the reformulated
  // terms) sixteen times, so explain and reformulate stages run
  // concurrently on the pool.
  FullStack stack;
  ASSERT_TRUE(stack.server->Start().ok());
  const std::vector<std::string> queries =
      HeadTerms(*stack.snapshot->corpus, 4);
  ASSERT_EQ(queries.size(), 4u);
  std::vector<SessionGolden> goldens;
  for (const std::string& q : queries) {
    goldens.push_back(GoldenSession(*stack.snapshot, q, {1, 2}));
  }
  const uint16_t port = stack.server->port();

  constexpr int kConnections = 4;
  constexpr int kSessions = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      BlockingClient client;
      if (!client.Connect("127.0.0.1", port).ok()) {
        failures.fetch_add(kSessions);
        return;
      }
      for (int i = 0; i < kSessions; ++i) {
        const size_t q = static_cast<size_t>(c + i) % queries.size();
        const bool searched = client.Search({queries[q], 10, 0.0}).ok();
        auto explain = client.Explain({queries[q], 1});
        auto reform = client.Reformulate({queries[q], {1, 2}});
        const bool matched =
            explain.ok() && explain->text == goldens[q].explain_text &&
            reform.ok() &&
            reform->reformulated_query == goldens[q].reformulated_query;
        const bool next =
            reform.ok() &&
            client.Search({TermList(reform->reformulated_query), 10, 0.0})
                .ok();
        if (!searched || !matched || !next) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  stack.server->Shutdown();

  const ServerStats stats = stack.server->stats();
  EXPECT_EQ(stats.frames_received, 4u * kConnections * kSessions);
  EXPECT_EQ(stats.frames_sent, 4u * kConnections * kSessions);
  EXPECT_EQ(stats.unanswered_frames, 0u);
}

TEST(NetFullStackTest, StagesOnADroppedVectorMatchInProcessGoldens) {
  // 30,600 nodes: the result cache's byte budget holds `fit` score
  // vectors, far fewer than its 512 entries. Once `fit` newer searches
  // have dropped Q's vector, explain re-executes Q's search, which
  // restores the vector for the reformulate after it.
  FullStack stack({}, TestServerOptions(), 20000);
  ASSERT_TRUE(stack.server->Start().ok());
  const size_t fit = serve::SearchService::kScoreCacheBytes /
                     (stack.snapshot->data->num_nodes() * sizeof(double));
  const std::vector<std::string> terms =
      HeadTerms(*stack.snapshot->corpus, fit + 1);
  ASSERT_EQ(terms.size(), fit + 1);
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());
  for (const std::string& t : terms) {
    auto search = client.Search({t, 10, 0.0});
    ASSERT_TRUE(search.ok()) << search.status();
  }

  const std::string& query = terms[0];
  const SessionGolden golden = GoldenSession(*stack.snapshot, query, {1, 2});
  const uint64_t executed = stack.service->Snapshot().executed;
  auto explain = client.Explain({query, 1});
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_EQ(explain->text, golden.explain_text);
  auto reform = client.Reformulate({query, {1, 2}});
  ASSERT_TRUE(reform.ok()) << reform.status();
  EXPECT_EQ(reform->reformulated_query, golden.reformulated_query);
  EXPECT_EQ(stack.service->Snapshot().executed, executed + 1);
  stack.server->Shutdown();
  EXPECT_EQ(stack.server->stats().unanswered_frames, 0u);
}

TEST(NetFullStackTest, ReformulateLearnsAtTheSnapshotsDamping) {
  // The search, kExplain and kReformulate all run at the snapshot's
  // damping: a reformulation that learned at a fixed 0.85 from scores
  // computed at 0.6 would come back as the second golden.
  auto damped = std::make_shared<serve::ServeSnapshot>(*MakeSnapshot(80, 11));
  damped->default_options.objectrank.damping = 0.6;
  FullStack stack(damped, {}, TestServerOptions());
  ASSERT_TRUE(stack.server->Start().ok());
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());

  const std::string query = HeadTerm(*damped->corpus);
  const SessionGolden golden = GoldenSession(*damped, query, {1, 2});
  const SessionGolden at_085 = GoldenSession(*damped, query, {1, 2}, 0.85);
  ASSERT_FALSE(golden.reformulated_query.empty());
  ASSERT_NE(golden.reformulated_query, at_085.reformulated_query);
  auto explain = client.Explain({query, 1});
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_EQ(explain->text, golden.explain_text);
  auto reform = client.Reformulate({query, {1, 2}});
  ASSERT_TRUE(reform.ok()) << reform.status();
  EXPECT_EQ(reform->reformulated_query, golden.reformulated_query);
  stack.server->Shutdown();
  EXPECT_EQ(stack.server->stats().unanswered_frames, 0u);
}

TEST(NetFullStackTest, ReformulateReusesTheSubgraphExplainBuilt) {
  // The paper's loop: explain rank 1, then reformulate {1,2} over the
  // same cached result. Rank 1's subgraph comes from the memo (one hit);
  // rank 2's is built (the second of two misses).
  FullStack stack;
  ASSERT_TRUE(stack.server->Start().ok());
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());
  const std::string query = HeadTerm(*stack.snapshot->corpus);
  const SessionGolden golden = GoldenSession(*stack.snapshot, query, {1, 2});

  auto explain = client.Explain({query, 1});
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_EQ(explain->text, golden.explain_text);
  auto reform = client.Reformulate({query, {1, 2}});
  ASSERT_TRUE(reform.ok()) << reform.status();
  EXPECT_EQ(reform->reformulated_query, golden.reformulated_query);
  const ExplainMemo::Stats memo = stack.handler->explain_memo_stats();
  EXPECT_EQ(memo.hits, 1u);
  EXPECT_EQ(memo.misses, 2u);

  // A repeated explain is answered from the memo with the same text and
  // the stage times of the build that produced it.
  auto again = client.Explain({query, 1});
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again->text, explain->text);
  EXPECT_EQ(again->construction_seconds, explain->construction_seconds);
  EXPECT_EQ(stack.handler->explain_memo_stats().hits, 2u);
  stack.server->Shutdown();
  EXPECT_EQ(stack.server->stats().unanswered_frames, 0u);
}

TEST(NetFullStackTest, MemoNeverCrossesASnapshotSwap) {
  // A publication that adds nodes lands between explain and reformulate.
  // The reformulate's search executes on the grown snapshot, so its
  // result is a new one and no memoized subgraph of version 1 matches.
  FullStack stack;
  auto grown = MakeSnapshot(120, 11);
  ASSERT_GT(grown->data->num_nodes(), stack.snapshot->data->num_nodes());
  ASSERT_TRUE(stack.server->Start().ok());
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());
  const std::string query = HeadTerm(*stack.snapshot->corpus);

  auto explain = client.Explain({query, 1});
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_EQ(explain->text,
            GoldenSession(*stack.snapshot, query, {1, 2}).explain_text);
  stack.service->SwapSnapshot(grown);
  const SessionGolden golden = GoldenSession(*grown, query, {1, 2});
  auto reform = client.Reformulate({query, {1, 2}});
  ASSERT_TRUE(reform.ok()) << reform.status();
  EXPECT_EQ(reform->reformulated_query, golden.reformulated_query);
  auto explain_grown = client.Explain({query, 1});
  ASSERT_TRUE(explain_grown.ok()) << explain_grown.status();
  EXPECT_EQ(explain_grown->text, golden.explain_text);
  const ExplainMemo::Stats memo = stack.handler->explain_memo_stats();
  EXPECT_EQ(memo.hits, 1u);  // the last explain, over the grown result
  EXPECT_EQ(memo.misses, 3u);
  stack.server->Shutdown();
  EXPECT_EQ(stack.server->stats().unanswered_frames, 0u);
}

TEST(NetFullStackTest, MemoNeverHitsWithTheResultCacheOff) {
  // With no result cache every stage executes its own search, and a
  // memoized subgraph never outlives the result it explains.
  serve::SearchService::Options options;
  options.result_cache_entries = 0;
  FullStack stack(options);
  ASSERT_TRUE(stack.server->Start().ok());
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());
  const std::string query = HeadTerm(*stack.snapshot->corpus);
  const SessionGolden golden = GoldenSession(*stack.snapshot, query, {1, 2});

  for (int round = 0; round < 2; ++round) {
    auto explain = client.Explain({query, 1});
    ASSERT_TRUE(explain.ok()) << explain.status();
    EXPECT_EQ(explain->text, golden.explain_text);
    auto reform = client.Reformulate({query, {1, 2}});
    ASSERT_TRUE(reform.ok()) << reform.status();
    EXPECT_EQ(reform->reformulated_query, golden.reformulated_query);
  }
  const ExplainMemo::Stats memo = stack.handler->explain_memo_stats();
  EXPECT_EQ(memo.hits, 0u);
  EXPECT_EQ(memo.misses, 6u);
  stack.server->Shutdown();
  EXPECT_EQ(stack.server->stats().unanswered_frames, 0u);
}

TEST(NetFullStackTest, RepeatedFeedbackRankIsRefusedBeforeAdmission) {
  // Every listed rank is one explanation inside one stage, and a started
  // stage runs to completion: a frame repeating a rank must be refused
  // on the loop, before it takes an admission slot.
  FullStack stack;
  ASSERT_TRUE(stack.server->Start().ok());
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()).ok());
  const std::string query = HeadTerm(*stack.snapshot->corpus);
  ASSERT_TRUE(client.Search({query, 10, 0.0}).ok());

  const uint64_t submitted = stack.service->Snapshot().submitted;
  auto twice = client.Reformulate({query, {1, 1}});
  ASSERT_FALSE(twice.ok());
  EXPECT_EQ(twice.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(twice.status().message().find("feedback rank 1"),
            std::string::npos)
      << twice.status();
  EXPECT_EQ(stack.service->Snapshot().submitted, submitted);

  Timer timer;
  auto flood = client.Reformulate(
      {query, std::vector<uint32_t>(100'000, 1)});
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
  ASSERT_FALSE(flood.ok());
  EXPECT_EQ(flood.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stack.service->Snapshot().submitted, submitted);

  const SessionGolden golden = GoldenSession(*stack.snapshot, query, {1, 2});
  auto reform = client.Reformulate({query, {1, 2}});
  ASSERT_TRUE(reform.ok()) << reform.status();
  EXPECT_EQ(reform->reformulated_query, golden.reformulated_query);
  stack.server->Shutdown();
  EXPECT_EQ(stack.server->stats().unanswered_frames, 0u);
}

}  // namespace
}  // namespace orx::net
