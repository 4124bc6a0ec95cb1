// Fuzz target for the mmap container loaders (io/container.h +
// io/snapshot_io.h, "ORXD2"/"ORXC2" formats) — the only binary dataset
// and rank-cache formats. Hostile section offsets/sizes/counts must be
// rejected by bounds arithmetic before any typed span is formed, because
// a bad span is an out-of-bounds *read through the mapping*. The harness
// materializes the input as a memfd (the loaders only speak paths) and
// asserts:
//  * no crash / sanitizer report on any input;
//  * anything the deep-validating open accepts also passes the structural
//    validator cross-checks (trap otherwise);
//  * the fast path (deep_validate=false) accepts a superset of what the
//    deep path accepts — deep validation only ever tightens;
//  * every accepted rank cache is structurally sound: a
//    ValidateInvariants failure naming a dense score-vector length or an
//    empty term traps (attach must have refused it), while value-level
//    violations (NaN/negative masses or scores, unordered head scores
//    from hostile float bytes) are reachable on the fast path and merely
//    exercised through Query, which must degrade, never crash.

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/status.h"
#include "core/rank_cache.h"
#include "io/container.h"
#include "io/snapshot_io.h"
#include "text/query.h"

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace {

/// Writes the input where MmapFile::Open can reach it. memfd keeps the
/// whole round-trip in memory; the /tmp fallback covers kernels without
/// memfd_create.
std::string MaterializeInput(const uint8_t* data, size_t size) {
#ifdef __linux__
  const int fd = memfd_create("container_fuzz", 0);
  if (fd >= 0) {
    size_t written = 0;
    while (written < size) {
      const ssize_t n = write(fd, data + written, size - written);
      if (n <= 0) break;
      written += static_cast<size_t>(n);
    }
    if (written == size) {
      return "/proc/self/fd/" + std::to_string(fd);
    }
    close(fd);
  }
#endif
  std::string path =
      "/tmp/orx_container_fuzz_" + std::to_string(getpid()) + ".bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return std::string();
  std::fwrite(data, 1, size, f);
  std::fclose(f);
  return path;
}

void ReleaseInput(const std::string& path) {
  if (path.rfind("/proc/self/fd/", 0) == 0) {
    close(std::atoi(path.c_str() + sizeof("/proc/self/fd/") - 1));
  } else if (!path.empty()) {
    std::remove(path.c_str());
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > (4u << 20)) return 0;
  const std::string path = MaterializeInput(data, size);
  if (path.empty()) return 0;

  // Structural layer alone: hostile TOC/section arithmetic, hash checks.
  for (const auto* magic : {&orx::io::kDatasetMagic,
                            &orx::io::kRankCacheMagic}) {
    auto container = orx::io::MappedContainer::Open(path, *magic);
    if (container.ok()) orx::IgnoreError(container->VerifyHashes());
  }

  orx::io::MappedDatasetOptions fast;
  fast.deep_validate = false;
  fast.advise = false;

  if (size >= 5 && std::memcmp(data, "ORXD2", 5) == 0) {
    auto deep = orx::io::OpenMappedDataset(path);
    auto shallow = orx::io::OpenMappedDataset(path, fast);
    // Deep validation only tightens: it must never accept a container
    // the shape-check-only path rejects.
    if (deep.ok() && !shallow.ok()) __builtin_trap();
    if (deep.ok()) {
      const auto& d = **deep;
      if (d.data().num_nodes() != d.authority().num_nodes()) {
        __builtin_trap();
      }
      if (d.layout() == nullptr) __builtin_trap();
    }
  } else if (size >= 5 && std::memcmp(data, "ORXC2", 5) == 0) {
    auto deep = orx::io::OpenMappedRankCache(path);
    auto shallow = orx::io::OpenMappedRankCache(path, fast);
    if (deep.ok() && !shallow.ok()) __builtin_trap();
    if (shallow.ok()) {
      // The structural messages only; "head scores are not descending"
      // is value-level and must not match.
      const orx::Status valid = shallow->ValidateInvariants();
      if (valid.message().find("scores, want num_nodes") !=
              std::string::npos ||
          valid.message().find("empty term") != std::string::npos) {
        __builtin_trap();
      }
      orx::text::QueryVector query(orx::text::ParseQuery("olap data cube"));
      orx::IgnoreError(shallow->Query(query));
    }
  }

  ReleaseInput(path);
  return 0;
}
