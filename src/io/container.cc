#include "io/container.h"

#include <cstdio>
#include <fstream>

#include "common/check.h"

namespace orx::io {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// Writes `n` zero bytes of alignment padding.
void WritePadding(std::ofstream& out, size_t n) {
  static const char zeros[kSectionAlign] = {};
  out.write(zeros, static_cast<std::streamsize>(n));
}

size_t AlignUp(size_t v) {
  return (v + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

}  // namespace

uint64_t Fnv1a(std::span<const char> bytes) {
  uint64_t h = kFnvOffset;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

ContainerWriter::ContainerWriter(const char (&magic)[8]) {
  std::memcpy(magic_, magic, 8);
}

void ContainerWriter::AddView(std::string_view name,
                              std::span<const char> bytes,
                              uint32_t elem_size, uint64_t elem_count) {
  ORX_CHECK(name.size() < 16);
  PendingSection s;
  s.name = std::string(name);
  s.view = bytes;
  s.elem_size = elem_size;
  s.elem_count = elem_count;
  sections_.push_back(std::move(s));
}

void ContainerWriter::AddOwned(std::string_view name, std::string bytes) {
  ORX_CHECK(name.size() < 16);
  PendingSection s;
  s.name = std::string(name);
  s.owned = std::move(bytes);
  s.elem_size = 1;
  s.elem_count = s.owned.size();
  sections_.push_back(std::move(s));
}

Status ContainerWriter::WriteTo(const std::string& path) const {
  // Lay out: header, aligned payloads, aligned TOC.
  std::vector<SectionEntry> toc(sections_.size());
  size_t cursor = sizeof(ContainerHeader);
  for (size_t i = 0; i < sections_.size(); ++i) {
    const PendingSection& s = sections_[i];
    const std::span<const char> bytes = s.bytes();
    cursor = AlignUp(cursor);
    SectionEntry& e = toc[i];
    std::memset(&e, 0, sizeof(e));
    std::memcpy(e.name, s.name.data(), s.name.size());
    e.offset = cursor;
    e.size = bytes.size();
    e.elem_size = s.elem_size;
    e.elem_count = s.elem_count;
    e.hash = Fnv1a(bytes);
    cursor += bytes.size();
  }
  const size_t toc_offset = AlignUp(cursor);
  const size_t file_size = toc_offset + toc.size() * sizeof(SectionEntry);

  ContainerHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, magic_, 8);
  header.version = kContainerVersion;
  header.section_count = static_cast<uint32_t>(sections_.size());
  header.file_size = file_size;
  header.toc_offset = toc_offset;
  header.endian = kEndianSentinel;

  // Written beside `path` and renamed over it: a mapping of the old file
  // (possibly the very source of these section views) keeps its inode,
  // where truncating in place would fault it, and no reader ever sees a
  // half-written container.
  const std::string tmp_path = path + ".tmp";
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) return NotFoundError("cannot open for writing: " + tmp_path);
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  size_t written = sizeof(header);
  for (size_t i = 0; i < sections_.size(); ++i) {
    WritePadding(out, toc[i].offset - written);
    const std::span<const char> bytes = sections_[i].bytes();
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    written = toc[i].offset + bytes.size();
  }
  WritePadding(out, toc_offset - written);
  out.write(reinterpret_cast<const char*>(toc.data()),
            static_cast<std::streamsize>(toc.size() * sizeof(SectionEntry)));
  out.close();
  if (!out || std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return InternalError("container write failed: " + path);
  }
  return Status::OK();
}

StatusOr<MappedContainer> MappedContainer::Open(const std::string& path,
                                                const char (&magic)[8]) {
  auto file = MmapFile::Open(path);
  if (!file.ok()) return file.status();

  MappedContainer c;
  c.file_ = std::move(*file);
  const size_t size = c.file_->size();
  if (size < sizeof(ContainerHeader)) {
    return DataLossError("container too small for a header (" +
                         std::to_string(size) + " bytes): " + path);
  }
  std::memcpy(&c.header_, c.file_->data(), sizeof(ContainerHeader));
  const ContainerHeader& h = c.header_;
  if (std::memcmp(h.magic, magic, 8) != 0) {
    return DataLossError("bad container magic: " + path);
  }
  if (h.endian != kEndianSentinel) {
    return DataLossError("container endianness mismatch: " + path);
  }
  if (h.version != kContainerVersion) {
    return DataLossError("unsupported container version " +
                         std::to_string(h.version) + ": " + path);
  }
  if (h.file_size != size) {
    return DataLossError("container records " + std::to_string(h.file_size) +
                         " bytes but the file has " + std::to_string(size) +
                         ": " + path);
  }
  // TOC bounds, overflow-safe: division first, then subtraction.
  const uint64_t count = h.section_count;
  if (h.toc_offset % kSectionAlign != 0 || h.toc_offset > size ||
      count > (size - h.toc_offset) / sizeof(SectionEntry)) {
    return DataLossError("container TOC out of bounds: " + path);
  }
  c.toc_ = std::span<const SectionEntry>(
      reinterpret_cast<const SectionEntry*>(c.file_->data() + h.toc_offset),
      count);

  for (const SectionEntry& e : c.toc_) {
    if (std::memchr(e.name, 0, sizeof(e.name)) == nullptr) {
      return DataLossError("container section name is not NUL-terminated: " +
                           path);
    }
    const std::string name(e.name);
    if (e.offset % kSectionAlign != 0) {
      return DataLossError("section '" + name + "' is misaligned: " + path);
    }
    // offset + size <= size without overflow.
    if (e.offset > size || e.size > size - e.offset) {
      return DataLossError("section '" + name + "' exceeds the file: " +
                           path);
    }
    if (e.elem_size == 0 ||
        e.elem_count != e.size / e.elem_size ||
        e.size % e.elem_size != 0) {
      return DataLossError("section '" + name +
                           "' element accounting is inconsistent: " + path);
    }
  }
  return c;
}

const SectionEntry* MappedContainer::Find(std::string_view name) const {
  for (const SectionEntry& e : toc_) {
    if (name == e.name) return &e;
  }
  return nullptr;
}

StatusOr<std::span<const char>> MappedContainer::Bytes(
    std::string_view name) const {
  const SectionEntry* e = Find(name);
  if (e == nullptr) {
    return NotFoundError("container has no section '" + std::string(name) +
                         "'");
  }
  return std::span<const char>(file_->data() + e->offset,
                               static_cast<size_t>(e->size));
}

Status MappedContainer::VerifyHashes() const {
  for (const SectionEntry& e : toc_) {
    const uint64_t got = Fnv1a(
        {file_->data() + e.offset, static_cast<size_t>(e.size)});
    if (got != e.hash) {
      return DataLossError("section '" + std::string(e.name) +
                           "' hash mismatch (payload corrupted)");
    }
  }
  return Status::OK();
}

}  // namespace orx::io
