#ifndef ORX_COMMON_BYTE_IO_H_
#define ORX_COMMON_BYTE_IO_H_

#include <cstdint>
#include <istream>
#include <string>

#include "common/status.h"

namespace orx {

/// Little-endian primitive reader over an std::istream for the binary
/// decoders: the container meta blobs (io/snapshot_io) and the ORXN
/// frame payloads (net/frame). Two jobs beyond plain stream reads, both
/// aimed at untrusted input:
///
///  * every read tracks the byte offset consumed so far, and every error
///    is kDataLoss naming that offset — "truncated edge role at byte
///    1 032" instead of "truncated stream";
///  * length-prefixed reads (ReadString) grow their destination in
///    bounded chunks as bytes actually arrive, so a corrupt or hostile
///    length field can never drive one huge eager allocation before the
///    stream runs dry.
///
/// The reader owns no state beyond the offset; interleaving it with
/// direct stream reads would desynchronize offset() and is unsupported.
class ByteReader {
 public:
  explicit ByteReader(std::istream& in) : in_(in) {}

  /// Bytes successfully consumed so far (== the offset of the next read,
  /// and the offset reported by a failing read).
  uint64_t offset() const { return offset_; }

  /// Reads exactly `n` bytes; kDataLoss("truncated <what> at byte N")
  /// otherwise.
  Status ReadBytes(char* out, size_t n, const char* what);

  Status ReadU32(uint32_t* v, const char* what);
  Status ReadU64(uint64_t* v, const char* what);
  Status ReadDouble(double* v, const char* what);

  /// Reads a u32-length-prefixed string. A length above `limit` is
  /// kDataLoss ("implausible <what> length L at byte N") — limits are
  /// per-field sanity bounds, not stream positions.
  Status ReadString(std::string* s, uint64_t limit, const char* what);

 private:
  Status Truncated(const char* what) const;

  std::istream& in_;
  uint64_t offset_ = 0;
};

}  // namespace orx

#endif  // ORX_COMMON_BYTE_IO_H_
