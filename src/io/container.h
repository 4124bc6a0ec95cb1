#ifndef ORX_IO_CONTAINER_H_
#define ORX_IO_CONTAINER_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "io/mmap_file.h"

namespace orx::io {

/// The ORX container format: a relocatable, mmap-friendly section file.
/// ORXD2 carries a full dataset (graph + indexes), ORXC2 a precomputed
/// rank cache; both share this layout:
///
///   [ header: 64 bytes ]
///   [ section 0 payload, 64-byte aligned ] ... [ section N-1 payload ]
///   [ TOC: section_count x 64-byte entries, 64-byte aligned ]
///
/// Every structure is fixed-width little-endian with explicit offsets —
/// no pointers — so the file is position-independent: a loader maps it
/// anywhere and reads arrays in place. Section payloads start on 64-byte
/// boundaries, which satisfies the alignment of every element type we
/// store (<= 8 bytes) and puts each section on its own cache line.
///
/// A loader must treat the bytes as hostile until OpenContainer's checks
/// pass: every offset/size is bounds-checked with overflow-safe
/// arithmetic before any section is dereferenced.

/// Bytes 0..63 of every container. Trivially copyable on purpose: the
/// writer memcpy's it out and the loader memcpy's it in.
struct ContainerHeader {
  /// "ORXD2\0\0\0" / "ORXC2\0\0\0" — NUL-padded 8 bytes.
  char magic[8];
  /// Format version; readers reject versions they do not know.
  uint32_t version;
  /// Number of TOC entries.
  uint32_t section_count;
  /// Total file size in bytes; must equal the mapped size exactly.
  uint64_t file_size;
  /// Absolute offset of the TOC (64-byte aligned).
  uint64_t toc_offset;
  /// kEndianSentinel as written by the producer; a byte-swapped value
  /// means the file came from an incompatible (big-endian) machine.
  uint32_t endian;
  char reserved[28];
};
static_assert(sizeof(ContainerHeader) == 64);

/// One TOC entry describing a section payload.
struct SectionEntry {
  /// NUL-padded section name; at most 15 characters.
  char name[16];
  /// Absolute payload offset (64-byte aligned) and size in bytes.
  uint64_t offset;
  uint64_t size;
  /// Element width in bytes and element count; size == elem_size * count.
  uint32_t elem_size;
  uint32_t reserved;
  uint64_t elem_count;
  /// FNV-1a of the payload bytes; checked by deep validation (a full
  /// streaming pass over the section), not on the fast mmap-attach path.
  uint64_t hash;
  uint64_t reserved2;
};
static_assert(sizeof(SectionEntry) == 64);

inline constexpr uint32_t kContainerVersion = 1;
inline constexpr uint32_t kEndianSentinel = 0x0A0B0C0Du;
inline constexpr size_t kSectionAlign = 64;
inline constexpr char kDatasetMagic[8] = {'O', 'R', 'X', 'D', '2', 0, 0, 0};
inline constexpr char kRankCacheMagic[8] = {'O', 'R', 'X', 'C', '2', 0, 0, 0};

/// FNV-1a over a byte range (the section hash).
uint64_t Fnv1a(std::span<const char> bytes);

/// Accumulates named sections and writes them as one container file.
/// Section payloads are stored as *views* — the caller keeps the backing
/// arrays alive until WriteTo returns — so writing a 100M-edge dataset
/// never duplicates the arrays in memory. Small generated payloads (the
/// meta blob) can be handed over by value instead.
class ContainerWriter {
 public:
  /// `magic` is one of kDatasetMagic / kRankCacheMagic.
  explicit ContainerWriter(const char (&magic)[8]);

  /// Adds a section viewing `data`; T must be trivially copyable.
  template <typename T>
  void Add(std::string_view name, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    AddView(name, {reinterpret_cast<const char*>(data.data()),
                   data.size() * sizeof(T)},
            sizeof(T), data.size());
  }

  /// Adds a section owning `bytes` (elem_size 1).
  void AddOwned(std::string_view name, std::string bytes);

  /// Streams header + sections + TOC to `path`, replacing it atomically
  /// (written to `path`.tmp, then renamed), so mappings of the old file
  /// stay valid. O(total payload) sequential writes.
  Status WriteTo(const std::string& path) const;

 private:
  struct PendingSection {
    std::string name;
    std::span<const char> view;
    std::string owned;
    uint32_t elem_size = 1;
    uint64_t elem_count = 0;
    std::span<const char> bytes() const {
      return owned.empty() && view.data() != nullptr ? view
                                                     : std::span<const char>(
                                                           owned.data(),
                                                           owned.size());
    }
  };

  void AddView(std::string_view name, std::span<const char> bytes,
               uint32_t elem_size, uint64_t elem_count);

  char magic_[8];
  std::vector<PendingSection> sections_;
};

/// A validated, mapped container. Section accessors return spans aliasing
/// the mapping; `file()` is the keepalive that borrowing structures
/// (ArrayRef) must hold.
class MappedContainer {
 public:
  /// Maps `path` and validates header + TOC against hostile input:
  /// magic/version/endian, exact file size, TOC bounds, per-section
  /// 64-byte alignment, overflow-safe payload bounds, elem_size * count
  /// == size, and NUL-terminated names. Does NOT hash payloads — that is
  /// VerifyHashes(), the deep-validation step.
  static StatusOr<MappedContainer> Open(const std::string& path,
                                        const char (&magic)[8]);

  /// True if a section of this name exists.
  bool Has(std::string_view name) const { return Find(name) != nullptr; }

  /// Raw payload bytes of `name`; kNotFound if absent.
  StatusOr<std::span<const char>> Bytes(std::string_view name) const;

  /// Typed payload of `name`; kNotFound if absent, kDataLoss if the
  /// recorded element width disagrees with T.
  template <typename T>
  StatusOr<std::span<const T>> Section(std::string_view name) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const SectionEntry* e = Find(name);
    if (e == nullptr) {
      return NotFoundError("container has no section '" + std::string(name) +
                           "'");
    }
    if (e->elem_size != sizeof(T)) {
      return DataLossError("section '" + std::string(name) + "' has " +
                           std::to_string(e->elem_size) +
                           "-byte elements, expected " +
                           std::to_string(sizeof(T)));
    }
    return std::span<const T>(
        reinterpret_cast<const T*>(file_->data() + e->offset),
        static_cast<size_t>(e->elem_count));
  }

  /// Recomputes every section hash against the TOC (one full sequential
  /// read of the file). Deep validation / `orx_cli validate` only.
  Status VerifyHashes() const;

  const std::shared_ptr<const MmapFile>& file() const { return file_; }
  std::span<const SectionEntry> sections() const { return toc_; }
  const ContainerHeader& header() const { return header_; }

 private:
  const SectionEntry* Find(std::string_view name) const;

  std::shared_ptr<const MmapFile> file_;
  ContainerHeader header_{};
  std::span<const SectionEntry> toc_;
};

}  // namespace orx::io

#endif  // ORX_IO_CONTAINER_H_
