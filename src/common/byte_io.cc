#include "common/byte_io.h"

#include <algorithm>
#include <cstring>

namespace orx {
namespace {

// Elements appended per growth step of a length-prefixed read. Bounds
// the allocation a corrupt length field can force before the stream
// runs out of bytes: one chunk, not the full claimed length.
constexpr size_t kChunkElements = size_t{1} << 16;

}  // namespace

Status ByteReader::Truncated(const char* what) const {
  return DataLossError("truncated " + std::string(what) + " at byte " +
                       std::to_string(offset_));
}

Status ByteReader::ReadBytes(char* out, size_t n, const char* what) {
  if (n == 0) return Status::OK();
  if (!in_.read(out, static_cast<std::streamsize>(n))) {
    // gcount() bytes arrived before EOF; they are consumed either way.
    offset_ += static_cast<uint64_t>(in_.gcount());
    return Truncated(what);
  }
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
  static_assert(sizeof(double) == 8);
  char buf[8];
  ORX_RETURN_IF_ERROR(ReadBytes(buf, 8, what));
  std::memcpy(v, buf, 8);
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
  s->clear();
  size_t remaining = len;
  while (remaining > 0) {
    const size_t step = std::min(remaining, kChunkElements);
    const size_t old_size = s->size();
    s->resize(old_size + step);
    ORX_RETURN_IF_ERROR(ReadBytes(s->data() + old_size, step, what));
    remaining -= step;
  }
  return Status::OK();
}

}  // namespace orx
