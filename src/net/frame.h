#ifndef ORX_NET_FRAME_H_
#define ORX_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mutate/mutation.h"
#include "serve/serve_metrics.h"

namespace orx::net {

/// The ORX wire protocol: length-prefixed binary frames, little-endian
/// throughout, decoded with the hardened reader in common/byte_io (the
/// same one the container meta blobs use).
///
/// Frame layout:
///   u32  magic        "ORXN" (0x4E58524F little-endian)
///   u8   version      kVersion (2); any other value is refused
///   u8   op           Op below
///   u16  reserved     0 on the wire; receivers ignore it
///   u64  request_id   echoed verbatim in the response; clients pipeline
///                     by matching ids, so responses may arrive out of
///                     submission order
///   u32  payload_size bytes following the header, bounded by
///                     kMaxPayload
///   ...  payload      op-specific, codecs below
///
/// Every request op gets exactly one response frame: the same op on
/// success or kError carrying a status code + message on failure
/// (admission rejection arrives as kError/kUnavailable — load shedding
/// is an answer, not a dropped frame). Decoding is hardened the same way
/// the dataset deserializer is: bounded lengths, and every malformed
/// input yields kDataLoss naming the byte offset, never a crash or an
/// oversized allocation (fuzz/net_frame_fuzz.cc holds the protocol to
/// that).
///
/// Every payload has exactly one layout per version: no field is
/// optional, reserved or skipped, and a bool is the byte 0 or 1, so an
/// accepted payload re-encodes to the identical bytes. Any layout change
/// bumps kVersion, and a peer of another version is refused at the
/// header.
enum class Op : uint8_t {
  kPing = 0,
  kSearch = 1,
  kExplain = 2,
  kReformulate = 3,
  kValidate = 4,
  kMetrics = 5,
  /// Response-only: status code + message.
  kError = 6,
  /// Append a mutation batch to the server's delta log (the write path).
  kMutate = 7,
};

constexpr uint32_t kMagic = 0x4E58524F;  // "ORXN" read little-endian
constexpr uint8_t kVersion = 2;
constexpr size_t kHeaderSize = 20;
/// Per-frame payload bound. Generous for responses (a 10k-result search
/// response is ~1 MB); a hostile length field beyond it is rejected
/// before any allocation happens.
constexpr uint32_t kMaxPayload = 1u << 24;

struct FrameHeader {
  Op op = Op::kPing;
  uint64_t request_id = 0;
  uint32_t payload_size = 0;
};

struct Frame {
  FrameHeader header;
  std::string payload;
};

/// Appends a kHeaderSize-byte header to `out`.
void AppendHeader(std::string* out, Op op, uint64_t request_id,
                  uint32_t payload_size);

/// One full frame: header + payload.
std::string EncodeFrame(Op op, uint64_t request_id,
                        const std::string& payload);

/// Decodes a header from exactly kHeaderSize bytes. kDataLoss on a bad
/// magic, unknown version, unknown op, or a payload_size above
/// `max_payload`, naming the offending field.
StatusOr<FrameHeader> DecodeHeader(const char* data,
                                   uint32_t max_payload = kMaxPayload);

// --- Payload codecs --------------------------------------------------------
//
// Encode* appends to a string; Decode* parses a payload and fails with
// kDataLoss (offset-bearing, via ByteReader) on truncation, trailing
// garbage, or implausible lengths.

void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
void AppendDouble(std::string* out, double v);
void AppendString(std::string* out, const std::string& s);

/// kSearch request. `tier` is a core::SearchTier wire value a request
/// may name: 0 auto or 1 exact. Anything else, kCached (2) included, is
/// rejected at decode (kDataLoss), so handlers can cast without
/// re-checking.
struct SearchRequest {
  std::string query;
  /// 0 = the server snapshot's default k.
  uint32_t k = 0;
  /// 0 = the server's default deadline.
  double deadline_seconds = 0.0;
  /// Requested execution tier (core::SearchTier wire value).
  uint8_t tier = 0;
};
std::string EncodeSearchRequest(const SearchRequest& request);
StatusOr<SearchRequest> DecodeSearchRequest(const std::string& payload);

/// One scored result row of a kSearch response.
struct WireResult {
  uint64_t node = 0;
  double score = 0.0;
  std::string type_label;
  std::string display_label;
};

/// kSearch response.
struct SearchResponse {
  std::vector<WireResult> results;
  uint32_t iterations = 0;
  bool cache_hit = false;
  bool coalesced = false;
  uint64_t snapshot_version = 0;
  double total_seconds = 0.0;
  /// Tier that actually produced the answer (core::SearchTier wire
  /// value): 1 exact or 2 cached, the rank cache. Anything else is
  /// rejected at decode.
  uint8_t tier_used = 1;
  /// Certified additive L-inf bound on the returned scores (0 = exact).
  double error_bound = 0.0;
};
std::string EncodeSearchResponse(const SearchResponse& response);
StatusOr<SearchResponse> DecodeSearchResponse(const std::string& payload);

/// kExplain request: explain the `target_rank`-th result (1-based) of
/// `query`'s search.
struct ExplainRequest {
  std::string query;
  uint32_t target_rank = 1;
};
std::string EncodeExplainRequest(const ExplainRequest& request);
StatusOr<ExplainRequest> DecodeExplainRequest(const std::string& payload);

/// kExplain response: the rendered explaining subgraph + stage stats.
struct ExplainResponse {
  std::string text;
  uint32_t iterations = 0;
  double construction_seconds = 0.0;
  double adjustment_seconds = 0.0;
};
std::string EncodeExplainResponse(const ExplainResponse& response);
StatusOr<ExplainResponse> DecodeExplainResponse(const std::string& payload);

/// kReformulate request: feed back the listed result ranks (1-based) of
/// `query`'s search as relevant.
struct ReformulateRequest {
  std::string query;
  std::vector<uint32_t> feedback_ranks;
};
std::string EncodeReformulateRequest(const ReformulateRequest& request);
StatusOr<ReformulateRequest> DecodeReformulateRequest(
    const std::string& payload);

/// kReformulate response.
struct ReformulateResponse {
  std::string reformulated_query;
  std::vector<std::pair<std::string, double>> top_expansion_terms;
  double reformulation_seconds = 0.0;
};
std::string EncodeReformulateResponse(const ReformulateResponse& response);
StatusOr<ReformulateResponse> DecodeReformulateResponse(
    const std::string& payload);

/// kValidate response (the request has no payload): a human-readable
/// report of the snapshot's structural validation.
struct ValidateResponse {
  bool ok = false;
  std::string report;
};
std::string EncodeValidateResponse(const ValidateResponse& response);
StatusOr<ValidateResponse> DecodeValidateResponse(
    const std::string& payload);

/// kMetrics response (the request has no payload): the service's
/// consistent-cut ServeMetrics plus the front end's own counters and,
/// when the server runs a write path, the mutation-side counters (all
/// zero on a read-only server). The tier group of ServeMetrics (tier
/// counters, miss reasons, per-tier percentiles) ends the payload.
struct MetricsResponse {
  serve::ServeMetrics serve;
  uint64_t connections_accepted = 0;
  uint64_t connections_open = 0;
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t error_frames_sent = 0;
  uint64_t decode_errors = 0;
  uint64_t backpressure_closes = 0;
  uint64_t idle_closes = 0;
  /// Write path (mutate/): delta-log and snapshot-builder counters.
  uint64_t mutate_accepted = 0;
  uint64_t mutate_rejected = 0;
  uint64_t mutate_queued = 0;
  uint64_t snapshots_published = 0;
  uint64_t epochs_live = 0;
  uint64_t rank_terms_reused = 0;
  uint64_t rank_terms_refreshed = 0;
};
std::string EncodeMetricsResponse(const MetricsResponse& response);
StatusOr<MetricsResponse> DecodeMetricsResponse(const std::string& payload);

/// kMutate request: one mutation batch for the server's delta log. A
/// success response acknowledges *acceptance into the in-memory log*,
/// not reader visibility — that arrives with the next snapshot
/// publication covering the sequence — and not durability: a clean
/// server shutdown publishes every acknowledged batch, but a crash loses
/// those not yet published (mutate/delta_log.h). Rejections (static
/// validation, log full, read-only server) arrive as kError frames
/// carrying the corresponding status.
struct MutateRequest {
  mutate::MutationBatch batch;
};
std::string EncodeMutateRequest(const MutateRequest& request);
StatusOr<MutateRequest> DecodeMutateRequest(const std::string& payload);

/// kMutate response.
struct MutateResponse {
  /// The delta-log sequence number assigned to the accepted batch.
  uint64_t sequence = 0;
  /// Batches still queued behind the snapshot builder right after this
  /// append — a congestion signal write clients can self-throttle on.
  uint64_t queued = 0;
};
std::string EncodeMutateResponse(const MutateResponse& response);
StatusOr<MutateResponse> DecodeMutateResponse(const std::string& payload);

/// kError response payload.
struct ErrorResponse {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};
std::string EncodeErrorResponse(const Status& status);
StatusOr<ErrorResponse> DecodeErrorResponse(const std::string& payload);

/// Convenience: a complete error frame for `request_id`.
std::string EncodeErrorFrame(uint64_t request_id, const Status& status);

}  // namespace orx::net

#endif  // ORX_NET_FRAME_H_
