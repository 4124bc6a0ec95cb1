#include "net/frame.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/byte_io.h"
#include "core/searcher.h"

namespace orx::net {
namespace {

// Per-field sanity bounds, in the dataset deserializer's spirit: a
// hostile length field fails fast instead of driving one huge eager
// allocation. Queries and error messages are short; only rendered
// explanation text and result labels get room.
constexpr uint64_t kQueryLimit = 1u << 16;
constexpr uint64_t kLabelLimit = 1u << 16;
constexpr uint64_t kTextLimit = kMaxPayload;
constexpr uint64_t kCountLimit = 1u << 20;
constexpr uint64_t kMutationLimit = 1u << 16;
constexpr uint64_t kAttributeLimit = 1u << 12;

// core::SearchTier wire values. A request names kAuto or kExact; kCached
// only ever reports what answered one, as does kExact, never kAuto.
constexpr uint8_t kAutoTier = static_cast<uint8_t>(core::SearchTier::kAuto);
constexpr uint8_t kExactTier = static_cast<uint8_t>(core::SearchTier::kExact);
constexpr uint8_t kCachedTier =
    static_cast<uint8_t>(core::SearchTier::kCached);

// Trailing bytes after the last field are a malformed frame, not
// padding: flag them so a fuzzer (or an attacker) can't smuggle unparsed
// bytes past the codec.
Status ExpectExhausted(const ByteReader& reader, const char* what) {
  if (reader.remaining() != 0) {
    return DataLossError(std::string("trailing bytes after ") + what +
                         " at byte " + std::to_string(reader.offset()));
  }
  return Status::OK();
}

Status ReadU8(ByteReader& reader, uint8_t* v, const char* what) {
  char c;
  ORX_RETURN_IF_ERROR(reader.ReadBytes(&c, 1, what));
  *v = static_cast<uint8_t>(c);
  return Status::OK();
}

// A bool is one byte, 0 or 1: any other value is malformed, so every
// accepted payload re-encodes to the same bytes.
Status ReadBool(ByteReader& reader, bool* v, const char* what) {
  uint8_t byte = 0;
  ORX_RETURN_IF_ERROR(ReadU8(reader, &byte, what));
  if (byte > 1) {
    return DataLossError("bad " + std::string(what) + " byte " +
                         std::to_string(byte) + " at byte " +
                         std::to_string(reader.offset()));
  }
  *v = byte == 1;
  return Status::OK();
}

Status ReadBoundedCount(ByteReader& reader, uint32_t* count, uint64_t limit,
                        const char* what) {
  ORX_RETURN_IF_ERROR(reader.ReadU32(count, what));
  if (*count > limit) {
    return DataLossError("implausible " + std::string(what) + " count " +
                         std::to_string(*count) + " at byte " +
                         std::to_string(reader.offset()));
  }
  return Status::OK();
}

}  // namespace

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void AppendDouble(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

void AppendString(std::string* out, const std::string& s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void AppendHeader(std::string* out, Op op, uint64_t request_id,
                  uint32_t payload_size) {
  AppendU32(out, kMagic);
  out->push_back(static_cast<char>(kVersion));
  out->push_back(static_cast<char>(op));
  out->push_back(0);  // reserved
  out->push_back(0);
  AppendU64(out, request_id);
  AppendU32(out, payload_size);
}

std::string EncodeFrame(Op op, uint64_t request_id,
                        const std::string& payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  AppendHeader(&out, op, request_id,
               static_cast<uint32_t>(payload.size()));
  out.append(payload);
  return out;
}

StatusOr<FrameHeader> DecodeHeader(const char* data, uint32_t max_payload) {
  auto u32_at = [&](size_t off) {
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<uint8_t>(data[off + static_cast<size_t>(i)]);
    }
    return v;
  };
  auto u64_at = [&](size_t off) {
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<uint8_t>(data[off + static_cast<size_t>(i)]);
    }
    return v;
  };
  const uint32_t magic = u32_at(0);
  if (magic != kMagic) {
    return DataLossError("bad frame magic 0x" + [&] {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%08x", magic);
      return std::string(buf);
    }() + " at byte 0");
  }
  const uint8_t version = static_cast<uint8_t>(data[4]);
  if (version != kVersion) {
    return DataLossError("unsupported frame version " +
                         std::to_string(version) + " at byte 4");
  }
  const uint8_t op = static_cast<uint8_t>(data[5]);
  if (op > static_cast<uint8_t>(Op::kMutate)) {
    return DataLossError("unknown frame op " + std::to_string(op) +
                         " at byte 5");
  }
  FrameHeader header;
  header.op = static_cast<Op>(op);
  header.request_id = u64_at(8);
  header.payload_size = u32_at(16);
  if (header.payload_size > max_payload) {
    return DataLossError("implausible payload size " +
                         std::to_string(header.payload_size) +
                         " at byte 16 (limit " +
                         std::to_string(max_payload) + ")");
  }
  return header;
}

std::string EncodeSearchRequest(const SearchRequest& request) {
  std::string out;
  AppendString(&out, request.query);
  AppendU32(&out, request.k);
  AppendDouble(&out, request.deadline_seconds);
  out.push_back(static_cast<char>(request.tier));
  return out;
}

StatusOr<SearchRequest> DecodeSearchRequest(const std::string& payload) {
  ByteReader in(payload);
  SearchRequest request;
  ORX_RETURN_IF_ERROR(
      in.ReadString(&request.query, kQueryLimit, "search query"));
  ORX_RETURN_IF_ERROR(in.ReadU32(&request.k, "search k"));
  ORX_RETURN_IF_ERROR(
      in.ReadDouble(&request.deadline_seconds, "search deadline"));
  ORX_RETURN_IF_ERROR(ReadU8(in, &request.tier, "search tier"));
  if (request.tier != kAutoTier && request.tier != kExactTier) {
    return DataLossError("bad search tier " + std::to_string(request.tier) +
                         " (a request names 0 auto or 1 exact) at byte " +
                         std::to_string(in.offset()));
  }
  ORX_RETURN_IF_ERROR(ExpectExhausted(in, "search request"));
  return request;
}

std::string EncodeSearchResponse(const SearchResponse& response) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(response.results.size()));
  for (const WireResult& r : response.results) {
    AppendU64(&out, r.node);
    AppendDouble(&out, r.score);
    AppendString(&out, r.type_label);
    AppendString(&out, r.display_label);
  }
  AppendU32(&out, response.iterations);
  out.push_back(response.cache_hit ? 1 : 0);
  out.push_back(response.coalesced ? 1 : 0);
  AppendU64(&out, response.snapshot_version);
  AppendDouble(&out, response.total_seconds);
  out.push_back(static_cast<char>(response.tier_used));
  AppendDouble(&out, response.error_bound);
  return out;
}

StatusOr<SearchResponse> DecodeSearchResponse(const std::string& payload) {
  ByteReader in(payload);
  SearchResponse response;
  uint32_t count = 0;
  ORX_RETURN_IF_ERROR(
      ReadBoundedCount(in, &count, kCountLimit, "search result"));
  response.results.reserve(std::min<uint32_t>(count, 4096));
  for (uint32_t i = 0; i < count; ++i) {
    WireResult r;
    ORX_RETURN_IF_ERROR(in.ReadU64(&r.node, "result node"));
    ORX_RETURN_IF_ERROR(in.ReadDouble(&r.score, "result score"));
    ORX_RETURN_IF_ERROR(
        in.ReadString(&r.type_label, kLabelLimit, "result type"));
    ORX_RETURN_IF_ERROR(
        in.ReadString(&r.display_label, kLabelLimit, "result label"));
    response.results.push_back(std::move(r));
  }
  ORX_RETURN_IF_ERROR(in.ReadU32(&response.iterations, "iterations"));
  ORX_RETURN_IF_ERROR(ReadBool(in, &response.cache_hit, "cache_hit"));
  ORX_RETURN_IF_ERROR(ReadBool(in, &response.coalesced, "coalesced"));
  ORX_RETURN_IF_ERROR(
      in.ReadU64(&response.snapshot_version, "snapshot version"));
  ORX_RETURN_IF_ERROR(in.ReadDouble(&response.total_seconds, "total seconds"));
  ORX_RETURN_IF_ERROR(ReadU8(in, &response.tier_used, "tier used"));
  if (response.tier_used != kExactTier && response.tier_used != kCachedTier) {
    return DataLossError("bad tier_used " +
                         std::to_string(response.tier_used) +
                         " (an answer reports 1 exact or 2 cached) at byte " +
                         std::to_string(in.offset()));
  }
  ORX_RETURN_IF_ERROR(in.ReadDouble(&response.error_bound, "error bound"));
  ORX_RETURN_IF_ERROR(ExpectExhausted(in, "search response"));
  return response;
}

std::string EncodeExplainRequest(const ExplainRequest& request) {
  std::string out;
  AppendString(&out, request.query);
  AppendU32(&out, request.target_rank);
  return out;
}

StatusOr<ExplainRequest> DecodeExplainRequest(const std::string& payload) {
  ByteReader in(payload);
  ExplainRequest request;
  ORX_RETURN_IF_ERROR(
      in.ReadString(&request.query, kQueryLimit, "explain query"));
  ORX_RETURN_IF_ERROR(in.ReadU32(&request.target_rank, "explain target rank"));
  ORX_RETURN_IF_ERROR(ExpectExhausted(in, "explain request"));
  return request;
}

std::string EncodeExplainResponse(const ExplainResponse& response) {
  std::string out;
  AppendString(&out, response.text);
  AppendU32(&out, response.iterations);
  AppendDouble(&out, response.construction_seconds);
  AppendDouble(&out, response.adjustment_seconds);
  return out;
}

StatusOr<ExplainResponse> DecodeExplainResponse(const std::string& payload) {
  ByteReader in(payload);
  ExplainResponse response;
  ORX_RETURN_IF_ERROR(
      in.ReadString(&response.text, kTextLimit, "explain text"));
  ORX_RETURN_IF_ERROR(in.ReadU32(&response.iterations, "explain iterations"));
  ORX_RETURN_IF_ERROR(
      in.ReadDouble(&response.construction_seconds, "construction seconds"));
  ORX_RETURN_IF_ERROR(
      in.ReadDouble(&response.adjustment_seconds, "adjustment seconds"));
  ORX_RETURN_IF_ERROR(ExpectExhausted(in, "explain response"));
  return response;
}

std::string EncodeReformulateRequest(const ReformulateRequest& request) {
  std::string out;
  AppendString(&out, request.query);
  AppendU32(&out, static_cast<uint32_t>(request.feedback_ranks.size()));
  for (uint32_t rank : request.feedback_ranks) AppendU32(&out, rank);
  return out;
}

StatusOr<ReformulateRequest> DecodeReformulateRequest(
    const std::string& payload) {
  ByteReader in(payload);
  ReformulateRequest request;
  ORX_RETURN_IF_ERROR(
      in.ReadString(&request.query, kQueryLimit, "reformulate query"));
  uint32_t count = 0;
  ORX_RETURN_IF_ERROR(
      ReadBoundedCount(in, &count, kCountLimit, "feedback rank"));
  request.feedback_ranks.reserve(std::min<uint32_t>(count, 4096));
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t rank = 0;
    ORX_RETURN_IF_ERROR(in.ReadU32(&rank, "feedback rank"));
    request.feedback_ranks.push_back(rank);
  }
  ORX_RETURN_IF_ERROR(ExpectExhausted(in, "reformulate request"));
  return request;
}

std::string EncodeReformulateResponse(const ReformulateResponse& response) {
  std::string out;
  AppendString(&out, response.reformulated_query);
  AppendU32(&out,
            static_cast<uint32_t>(response.top_expansion_terms.size()));
  for (const auto& [term, weight] : response.top_expansion_terms) {
    AppendString(&out, term);
    AppendDouble(&out, weight);
  }
  AppendDouble(&out, response.reformulation_seconds);
  return out;
}

StatusOr<ReformulateResponse> DecodeReformulateResponse(
    const std::string& payload) {
  ByteReader in(payload);
  ReformulateResponse response;
  ORX_RETURN_IF_ERROR(in.ReadString(
      &response.reformulated_query, kQueryLimit, "reformulated query"));
  uint32_t count = 0;
  ORX_RETURN_IF_ERROR(
      ReadBoundedCount(in, &count, kCountLimit, "expansion term"));
  response.top_expansion_terms.reserve(std::min<uint32_t>(count, 4096));
  for (uint32_t i = 0; i < count; ++i) {
    std::string term;
    double weight = 0.0;
    ORX_RETURN_IF_ERROR(in.ReadString(&term, kLabelLimit, "expansion term"));
    ORX_RETURN_IF_ERROR(in.ReadDouble(&weight, "expansion weight"));
    response.top_expansion_terms.emplace_back(std::move(term), weight);
  }
  ORX_RETURN_IF_ERROR(
      in.ReadDouble(&response.reformulation_seconds, "reformulation seconds"));
  ORX_RETURN_IF_ERROR(ExpectExhausted(in, "reformulate response"));
  return response;
}

std::string EncodeValidateResponse(const ValidateResponse& response) {
  std::string out;
  out.push_back(response.ok ? 1 : 0);
  AppendString(&out, response.report);
  return out;
}

StatusOr<ValidateResponse> DecodeValidateResponse(
    const std::string& payload) {
  ByteReader in(payload);
  ValidateResponse response;
  ORX_RETURN_IF_ERROR(ReadBool(in, &response.ok, "validate ok"));
  ORX_RETURN_IF_ERROR(
      in.ReadString(&response.report, kTextLimit, "validate report"));
  ORX_RETURN_IF_ERROR(ExpectExhausted(in, "validate response"));
  return response;
}

std::string EncodeMetricsResponse(const MetricsResponse& response) {
  std::string out;
  const serve::ServeMetrics& m = response.serve;
  AppendU64(&out, m.submitted);
  AppendU64(&out, m.rejected);
  AppendU64(&out, m.cache_hits);
  AppendU64(&out, m.coalesced);
  AppendU64(&out, m.executed);
  AppendU64(&out, m.deadline_exceeded);
  AppendU64(&out, m.failed);
  AppendU64(&out, m.completed);
  AppendDouble(&out, m.uptime_seconds);
  AppendDouble(&out, m.qps);
  AppendDouble(&out, m.latency_mean);
  AppendDouble(&out, m.latency_p50);
  AppendDouble(&out, m.latency_p95);
  AppendDouble(&out, m.latency_p99);
  AppendU64(&out, response.connections_accepted);
  AppendU64(&out, response.connections_open);
  AppendU64(&out, response.frames_received);
  AppendU64(&out, response.frames_sent);
  AppendU64(&out, response.error_frames_sent);
  AppendU64(&out, response.decode_errors);
  AppendU64(&out, response.backpressure_closes);
  AppendU64(&out, response.idle_closes);
  AppendU64(&out, response.mutate_accepted);
  AppendU64(&out, response.mutate_rejected);
  AppendU64(&out, response.mutate_queued);
  AppendU64(&out, response.snapshots_published);
  AppendU64(&out, response.epochs_live);
  AppendU64(&out, response.rank_terms_reused);
  AppendU64(&out, response.rank_terms_refreshed);
  AppendU64(&out, m.tier_exact);
  AppendU64(&out, m.tier_cached);
  AppendU64(&out, m.miss_no_cache);
  AppendU64(&out, m.miss_rates_mismatch);
  AppendU64(&out, m.miss_bm25_mismatch);
  AppendU64(&out, m.miss_missing_terms);
  AppendU64(&out, m.miss_error_budget);
  AppendDouble(&out, m.tier_exact_p50);
  AppendDouble(&out, m.tier_exact_p99);
  AppendDouble(&out, m.tier_cached_p50);
  AppendDouble(&out, m.tier_cached_p99);
  return out;
}

StatusOr<MetricsResponse> DecodeMetricsResponse(const std::string& payload) {
  ByteReader in(payload);
  MetricsResponse response;
  serve::ServeMetrics& m = response.serve;
  ORX_RETURN_IF_ERROR(in.ReadU64(&m.submitted, "submitted"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&m.rejected, "rejected"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&m.cache_hits, "cache_hits"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&m.coalesced, "coalesced"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&m.executed, "executed"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&m.deadline_exceeded, "deadline_exceeded"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&m.failed, "failed"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&m.completed, "completed"));
  ORX_RETURN_IF_ERROR(in.ReadDouble(&m.uptime_seconds, "uptime_seconds"));
  ORX_RETURN_IF_ERROR(in.ReadDouble(&m.qps, "qps"));
  ORX_RETURN_IF_ERROR(in.ReadDouble(&m.latency_mean, "latency_mean"));
  ORX_RETURN_IF_ERROR(in.ReadDouble(&m.latency_p50, "latency_p50"));
  ORX_RETURN_IF_ERROR(in.ReadDouble(&m.latency_p95, "latency_p95"));
  ORX_RETURN_IF_ERROR(in.ReadDouble(&m.latency_p99, "latency_p99"));
  ORX_RETURN_IF_ERROR(
      in.ReadU64(&response.connections_accepted, "connections_accepted"));
  ORX_RETURN_IF_ERROR(
      in.ReadU64(&response.connections_open, "connections_open"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&response.frames_received, "frames_received"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&response.frames_sent, "frames_sent"));
  ORX_RETURN_IF_ERROR(
      in.ReadU64(&response.error_frames_sent, "error_frames_sent"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&response.decode_errors, "decode_errors"));
  ORX_RETURN_IF_ERROR(
      in.ReadU64(&response.backpressure_closes, "backpressure_closes"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&response.idle_closes, "idle_closes"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&response.mutate_accepted, "mutate_accepted"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&response.mutate_rejected, "mutate_rejected"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&response.mutate_queued, "mutate_queued"));
  ORX_RETURN_IF_ERROR(
      in.ReadU64(&response.snapshots_published, "snapshots_published"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&response.epochs_live, "epochs_live"));
  ORX_RETURN_IF_ERROR(
      in.ReadU64(&response.rank_terms_reused, "rank_terms_reused"));
  ORX_RETURN_IF_ERROR(
      in.ReadU64(&response.rank_terms_refreshed, "rank_terms_refreshed"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&m.tier_exact, "tier_exact"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&m.tier_cached, "tier_cached"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&m.miss_no_cache, "miss_no_cache"));
  ORX_RETURN_IF_ERROR(
      in.ReadU64(&m.miss_rates_mismatch, "miss_rates_mismatch"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&m.miss_bm25_mismatch, "miss_bm25_mismatch"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&m.miss_missing_terms, "miss_missing_terms"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&m.miss_error_budget, "miss_error_budget"));
  ORX_RETURN_IF_ERROR(in.ReadDouble(&m.tier_exact_p50, "tier_exact_p50"));
  ORX_RETURN_IF_ERROR(in.ReadDouble(&m.tier_exact_p99, "tier_exact_p99"));
  ORX_RETURN_IF_ERROR(in.ReadDouble(&m.tier_cached_p50, "tier_cached_p50"));
  ORX_RETURN_IF_ERROR(in.ReadDouble(&m.tier_cached_p99, "tier_cached_p99"));
  ORX_RETURN_IF_ERROR(ExpectExhausted(in, "metrics response"));
  return response;
}

std::string EncodeMutateRequest(const MutateRequest& request) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(request.batch.mutations.size()));
  for (const mutate::Mutation& m : request.batch.mutations) {
    out.push_back(static_cast<char>(m.kind));
    AppendU32(&out, m.node_type);
    AppendU32(&out, m.node);
    AppendU32(&out, m.from);
    AppendU32(&out, m.to);
    AppendU32(&out, m.edge_type);
    AppendU32(&out, static_cast<uint32_t>(m.attributes.size()));
    for (const graph::Attribute& a : m.attributes) {
      AppendString(&out, a.name);
      AppendString(&out, a.value);
    }
  }
  return out;
}

StatusOr<MutateRequest> DecodeMutateRequest(const std::string& payload) {
  ByteReader in(payload);
  MutateRequest request;
  uint32_t count = 0;
  ORX_RETURN_IF_ERROR(
      ReadBoundedCount(in, &count, kMutationLimit, "mutation"));
  request.batch.mutations.reserve(std::min<uint32_t>(count, 4096));
  for (uint32_t i = 0; i < count; ++i) {
    mutate::Mutation m;
    uint8_t kind = 0;
    ORX_RETURN_IF_ERROR(ReadU8(in, &kind, "mutation kind"));
    if (kind > mutate::kMaxMutationKind) {
      return DataLossError("unknown mutation kind " + std::to_string(kind) +
                           " at byte " + std::to_string(in.offset()));
    }
    m.kind = static_cast<mutate::MutationKind>(kind);
    ORX_RETURN_IF_ERROR(in.ReadU32(&m.node_type, "node type"));
    ORX_RETURN_IF_ERROR(in.ReadU32(&m.node, "mutation node"));
    ORX_RETURN_IF_ERROR(in.ReadU32(&m.from, "edge from"));
    ORX_RETURN_IF_ERROR(in.ReadU32(&m.to, "edge to"));
    ORX_RETURN_IF_ERROR(in.ReadU32(&m.edge_type, "edge type"));
    uint32_t attrs = 0;
    ORX_RETURN_IF_ERROR(
        ReadBoundedCount(in, &attrs, kAttributeLimit, "attribute"));
    m.attributes.reserve(std::min<uint32_t>(attrs, 256));
    for (uint32_t a = 0; a < attrs; ++a) {
      graph::Attribute attribute;
      ORX_RETURN_IF_ERROR(
          in.ReadString(&attribute.name, kLabelLimit, "attribute name"));
      ORX_RETURN_IF_ERROR(
          in.ReadString(&attribute.value, kLabelLimit, "attribute value"));
      m.attributes.push_back(std::move(attribute));
    }
    request.batch.mutations.push_back(std::move(m));
  }
  ORX_RETURN_IF_ERROR(ExpectExhausted(in, "mutate request"));
  return request;
}

std::string EncodeMutateResponse(const MutateResponse& response) {
  std::string out;
  AppendU64(&out, response.sequence);
  AppendU64(&out, response.queued);
  return out;
}

StatusOr<MutateResponse> DecodeMutateResponse(const std::string& payload) {
  ByteReader in(payload);
  MutateResponse response;
  ORX_RETURN_IF_ERROR(in.ReadU64(&response.sequence, "mutate sequence"));
  ORX_RETURN_IF_ERROR(in.ReadU64(&response.queued, "mutate queued"));
  ORX_RETURN_IF_ERROR(ExpectExhausted(in, "mutate response"));
  return response;
}

std::string EncodeErrorResponse(const Status& status) {
  std::string out;
  AppendU32(&out, static_cast<uint32_t>(status.code()));
  AppendString(&out, status.message());
  return out;
}

StatusOr<ErrorResponse> DecodeErrorResponse(const std::string& payload) {
  ByteReader in(payload);
  ErrorResponse response;
  uint32_t code = 0;
  ORX_RETURN_IF_ERROR(in.ReadU32(&code, "error code"));
  if (code > static_cast<uint32_t>(StatusCode::kDeadlineExceeded)) {
    return DataLossError("unknown status code " + std::to_string(code) +
                         " at byte " + std::to_string(in.offset()));
  }
  response.code = static_cast<StatusCode>(code);
  ORX_RETURN_IF_ERROR(
      in.ReadString(&response.message, kQueryLimit, "error message"));
  ORX_RETURN_IF_ERROR(ExpectExhausted(in, "error response"));
  return response;
}

std::string EncodeErrorFrame(uint64_t request_id, const Status& status) {
  return EncodeFrame(Op::kError, request_id, EncodeErrorResponse(status));
}

}  // namespace orx::net
