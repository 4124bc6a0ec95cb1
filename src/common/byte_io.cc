#include "common/byte_io.h"

#include <cstring>

namespace orx {

Status ByteReader::Truncated(const char* what) {
  offset_ = bytes_.size();
  return DataLossError("truncated " + std::string(what) + " at byte " +
                       std::to_string(offset_));
}

Status ByteReader::ReadBytes(char* out, size_t n, const char* what) {
  if (n > remaining()) return Truncated(what);
  // An empty input's data() may be null, which memcpy never accepts.
  if (n == 0) return Status::OK();
  std::memcpy(out, bytes_.data() + offset_, n);
  offset_ += n;
  return Status::OK();
}

Status ByteReader::ReadU32(uint32_t* v, const char* what) {
  char buf[4];
  ORX_RETURN_IF_ERROR(ReadBytes(buf, 4, what));
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<unsigned char>(buf[i]))
          << (8 * i);
  }
  return Status::OK();
}

Status ByteReader::ReadU64(uint64_t* v, const char* what) {
  char buf[8];
  ORX_RETURN_IF_ERROR(ReadBytes(buf, 8, what));
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<unsigned char>(buf[i]))
          << (8 * i);
  }
  return Status::OK();
}

Status ByteReader::ReadDouble(double* v, const char* what) {
  static_assert(sizeof(double) == sizeof(uint64_t));
  uint64_t bits = 0;
  ORX_RETURN_IF_ERROR(ReadU64(&bits, what));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status ByteReader::ReadString(std::string* s, uint64_t limit,
                              const char* what) {
  uint32_t len = 0;
  ORX_RETURN_IF_ERROR(ReadU32(&len, what));
  if (len > limit) {
    return DataLossError("implausible " + std::string(what) + " length " +
                         std::to_string(len) + " at byte " +
                         std::to_string(offset_ - 4));
  }
  if (len > remaining()) return Truncated(what);
  s->assign(bytes_.data() + offset_, len);
  offset_ += len;
  return Status::OK();
}

}  // namespace orx
