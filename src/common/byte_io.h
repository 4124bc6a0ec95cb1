#ifndef ORX_COMMON_BYTE_IO_H_
#define ORX_COMMON_BYTE_IO_H_

#include <cstdint>
#include <span>
#include <string>

#include "common/status.h"

namespace orx {

/// Little-endian primitive reader over bytes already in memory, for the
/// binary decoders: the container meta blobs (io/snapshot_io) and the
/// ORXN frame payloads (net/frame). Two jobs beyond plain reads, both
/// aimed at untrusted input:
///
///  * every read tracks the byte offset consumed so far, and every error
///    is kDataLoss naming that offset — "truncated edge role at byte
///    1 032" instead of "truncated stream". A truncated read consumes
///    the bytes that remain, so it names the end of the input;
///  * length-prefixed reads (ReadString) check the claimed length
///    against the bytes left before they allocate, so a corrupt or
///    hostile length field can never drive an allocation the input
///    cannot fill.
///
/// The reader does not own the bytes; they must outlive it.
class ByteReader {
 public:
  explicit ByteReader(std::span<const char> bytes) : bytes_(bytes) {}

  /// Bytes successfully consumed so far (== the offset of the next read,
  /// and the offset reported by a failing read).
  uint64_t offset() const { return offset_; }

  /// Bytes not yet consumed.
  size_t remaining() const { return bytes_.size() - offset_; }

  /// Reads exactly `n` bytes; kDataLoss("truncated <what> at byte N")
  /// otherwise.
  Status ReadBytes(char* out, size_t n, const char* what);

  Status ReadU32(uint32_t* v, const char* what);
  Status ReadU64(uint64_t* v, const char* what);
  Status ReadDouble(double* v, const char* what);

  /// Reads a u32-length-prefixed string. A length above `limit` is
  /// kDataLoss ("implausible <what> length L at byte N") — limits are
  /// per-field sanity bounds, not input positions. A length past the
  /// end of the input is "truncated <what>", and nothing is allocated.
  Status ReadString(std::string* s, uint64_t limit, const char* what);

 private:
  Status Truncated(const char* what);

  std::span<const char> bytes_;
  size_t offset_ = 0;
};

}  // namespace orx

#endif  // ORX_COMMON_BYTE_IO_H_
