// Fuzz target for the ORXN wire protocol (net/frame.h) — the surface
// every network peer crosses. The input is treated as one frame: header
// bytes first, remainder as payload. Properties trapped on:
//  * DecodeHeader never accepts a payload_size above kMaxPayload;
//  * every payload decoder either accepts or fails kDataLoss — no crash,
//    no sanitizer report, no oversized allocation (hostile counts and
//    lengths are bounded before any reserve);
//  * the encoding is canonical: every accepted payload re-encodes to the
//    identical bytes (one layout per version, no reserved or skipped
//    field, bools only 0 or 1).

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "net/frame.h"

namespace {

using namespace orx::net;

/// Traps unless a payload that `decode` accepts is exactly what `encode`
/// writes for the decoded value.
template <typename Decode, typename Encode>
void CheckCanonical(const std::string& payload, Decode decode,
                    Encode encode) {
  auto decoded = decode(payload);
  if (!decoded.ok()) return;
  if (encode(*decoded) != payload) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (1u << 20)) return 0;
  const std::string input(reinterpret_cast<const char*>(data), size);

  if (input.size() >= kHeaderSize) {
    auto header = DecodeHeader(input.data());
    if (header.ok() && header->payload_size > kMaxPayload) {
      __builtin_trap();
    }
  }

  // Run every payload decoder over the bytes after the header (or the
  // whole input when it is shorter than a header) — each must be total.
  const std::string payload =
      input.size() > kHeaderSize ? input.substr(kHeaderSize) : input;
  CheckCanonical(payload, DecodeSearchRequest, EncodeSearchRequest);
  CheckCanonical(payload, DecodeSearchResponse, EncodeSearchResponse);
  CheckCanonical(payload, DecodeExplainRequest, EncodeExplainRequest);
  CheckCanonical(payload, DecodeExplainResponse, EncodeExplainResponse);
  CheckCanonical(payload, DecodeReformulateRequest,
                 EncodeReformulateRequest);
  CheckCanonical(payload, DecodeReformulateResponse,
                 EncodeReformulateResponse);
  CheckCanonical(payload, DecodeValidateResponse, EncodeValidateResponse);
  CheckCanonical(payload, DecodeMetricsResponse, EncodeMetricsResponse);
  CheckCanonical(payload, DecodeMutateRequest, EncodeMutateRequest);
  CheckCanonical(payload, DecodeMutateResponse, EncodeMutateResponse);
  CheckCanonical(payload, DecodeErrorResponse,
                 [](const ErrorResponse& error) {
                   return EncodeErrorResponse(
                       orx::Status(error.code, error.message));
                 });
  return 0;
}
