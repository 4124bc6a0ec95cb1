#include "graph/spmv_layout.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

#include "common/check.h"
#include "common/numa.h"
#include "graph/validate.h"

namespace orx::graph {
namespace {

/// Build-time storage for the large streamed arrays (SELL sources and
/// fused weights): an owned vector on single-node machines, a NUMA
/// first-touch buffer on multi-socket ones — the zeroing pass places
/// each contiguous node-major block of pages on the socket whose pinned
/// SpMV workers will stream it (common/numa.h). Small arrays always stay
/// owned; the threshold matches AllocateFirstTouch's.
template <typename T>
class BuildArray {
 public:
  void AssignZero(size_t n) {
    const size_t bytes = n * sizeof(T);
    if (Topology().num_nodes() > 1 && bytes >= (size_t{1} << 20)) {
      buffer_ = AllocateFirstTouch(bytes);
      data_ = static_cast<T*>(buffer_.get());
    } else {
      vec_.assign(n, T{});
      data_ = vec_.data();
    }
    size_ = n;
  }

  T& operator[](size_t i) { return data_[i]; }
  size_t size() const { return size_; }

  /// Moves the storage into an ArrayRef (borrowing the first-touch
  /// buffer, owning the vector). The BuildArray is spent afterwards.
  ArrayRef<T> Finish() {
    if (buffer_ != nullptr) {
      return ArrayRef<T>::Borrowed(std::span<const T>(data_, size_),
                                   std::move(buffer_));
    }
    return ArrayRef<T>(std::move(vec_));
  }

 private:
  std::vector<T> vec_;
  std::shared_ptr<void> buffer_;
  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace

SellStructure::SellStructure(const AuthorityGraph& graph)
    : num_rows(graph.num_nodes()) {
  const std::span<const uint64_t> offsets = graph.in_offsets();
  const std::span<const AuthorityEdge> edges = graph.in_edges();
  const auto degree = [&](uint32_t v) {
    return offsets[v + 1] - offsets[v];
  };

  // The small per-row arrays build into owned vectors directly; the big
  // streamed slot arrays go through BuildArray for NUMA first-touch
  // placement (no-op on single-node machines).
  std::vector<uint32_t>& order = row_order.mut();
  std::vector<uint32_t>& rows = node_row.mut();
  std::vector<uint64_t>& coff = chunk_offsets.mut();
  BuildArray<uint32_t> srcs;
  BuildArray<uint32_t> srcs_row;

  order.resize(num_rows);
  std::iota(order.begin(), order.end(), 0u);
  // Full-range degree sort (SELL "sigma = n"): chunks group rows of
  // similar length, which keeps the column padding negligible. Stable,
  // so the layout is deterministic.
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) {
                     return degree(a) > degree(b);
                   });

  const size_t chunks = (num_rows + kChunkRows - 1) / kChunkRows;
  coff.assign(chunks + 1, 0);
  for (size_t c = 0; c < chunks; ++c) {
    uint64_t longest = 0;
    for (size_t r = 0; r < kChunkRows && c * kChunkRows + r < num_rows; ++r) {
      longest = std::max<uint64_t>(longest,
                                   degree(order[c * kChunkRows + r]));
    }
    coff[c + 1] = coff[c] + longest * kChunkRows;
  }

  srcs.AssignZero(coff[chunks]);
  for (size_t c = 0; c < chunks; ++c) {
    for (size_t r = 0; r < kChunkRows && c * kChunkRows + r < num_rows; ++r) {
      const uint32_t v = order[c * kChunkRows + r];
      const uint64_t begin = offsets[v];
      for (uint64_t j = 0; j < degree(v); ++j) {
        // e.target of an in-edge is the *source* u of the edge u -> v.
        srcs[coff[c] + j * kChunkRows + r] = edges[begin + j].target;
      }
    }
  }

  rows.resize(num_rows);
  for (size_t r = 0; r < num_rows; ++r) rows[order[r]] = r;
  srcs_row.AssignZero(srcs.size());
  for (size_t i = 0; i < srcs.size(); ++i) {
    srcs_row[i] = rows[srcs[i]];
  }
  sources = srcs.Finish();
  sources_row = srcs_row.Finish();
  ORX_DCHECK_OK(ValidateInvariants(*this));
}

StatusOr<SellStructure> SellStructure::FromParts(
    size_t num_rows, std::span<const uint32_t> row_order,
    std::span<const uint32_t> node_row,
    std::span<const uint64_t> chunk_offsets,
    std::span<const uint32_t> sources, std::span<const uint32_t> sources_row,
    std::shared_ptr<const void> keepalive) {
  const size_t want_chunks =
      (num_rows + kChunkRows - 1) / kChunkRows;
  if (row_order.size() != num_rows || node_row.size() != num_rows ||
      chunk_offsets.size() != want_chunks + 1) {
    return DataLossError("SELL section shapes are inconsistent");
  }
  if (chunk_offsets.front() != 0 ||
      chunk_offsets.back() != sources.size() ||
      sources.size() != sources_row.size()) {
    return DataLossError("SELL chunk offsets do not cover the slots");
  }
  for (size_t c = 0; c + 1 < chunk_offsets.size(); ++c) {
    const uint64_t lo = chunk_offsets[c];
    const uint64_t hi = chunk_offsets[c + 1];
    if (hi < lo || (hi - lo) % kChunkRows != 0) {
      return DataLossError("SELL chunk offsets are not monotone multiples "
                           "of the chunk width");
    }
  }
  SellStructure s;
  s.num_rows = num_rows;
  s.row_order = ArrayRef<uint32_t>::Borrowed(row_order, keepalive);
  s.node_row = ArrayRef<uint32_t>::Borrowed(node_row, keepalive);
  s.chunk_offsets = ArrayRef<uint64_t>::Borrowed(chunk_offsets, keepalive);
  s.sources = ArrayRef<uint32_t>::Borrowed(sources, keepalive);
  s.sources_row =
      ArrayRef<uint32_t>::Borrowed(sources_row, std::move(keepalive));
  return s;
}

FusedLayout::FusedLayout(const AuthorityGraph& graph,
                         const TransferRates& rates,
                         std::shared_ptr<const SellStructure> structure)
    : rates_fingerprint_(rates.Fingerprint()) {
  if (structure != nullptr) {
    ORX_CHECK_MSG(structure->num_rows == graph.num_nodes(),
                  "shared SELL structure does not match the graph");
    structure_ = std::move(structure);
  } else {
    structure_ = std::make_shared<const SellStructure>(graph);
  }

  const std::span<const uint64_t> offsets = graph.in_offsets();
  const std::span<const AuthorityEdge> edges = graph.in_edges();
  const SellStructure& s = *structure_;
  BuildArray<double> weights;
  weights.AssignZero(s.padded_slots());
  for (size_t c = 0; c < s.num_chunks(); ++c) {
    for (size_t r = 0;
         r < SellStructure::kChunkRows &&
         c * SellStructure::kChunkRows + r < s.num_rows;
         ++r) {
      const uint32_t v = s.row_order[c * SellStructure::kChunkRows + r];
      const uint64_t begin = offsets[v];
      const uint64_t deg = offsets[v + 1] - begin;
      for (uint64_t j = 0; j < deg; ++j) {
        weights[s.chunk_offsets[c] + j * SellStructure::kChunkRows + r] =
            AuthorityGraph::EdgeRate(edges[begin + j], rates);
      }
    }
  }
  weights_ = weights.Finish();
  ORX_DCHECK_OK(ValidateInvariants(*this));
}

StatusOr<FusedLayout> FusedLayout::FromParts(
    std::shared_ptr<const SellStructure> structure,
    std::span<const double> weights, uint64_t fingerprint,
    std::shared_ptr<const void> keepalive) {
  if (structure == nullptr) {
    return DataLossError("fused layout needs a SELL structure");
  }
  if (weights.size() != structure->padded_slots()) {
    return DataLossError("fused weight array does not match the structure");
  }
  FusedLayout layout;
  layout.structure_ = std::move(structure);
  layout.weights_ = ArrayRef<double>::Borrowed(weights, std::move(keepalive));
  layout.rates_fingerprint_ = fingerprint;
  return layout;
}

void BlockVector::CopyLaneOut(size_t lane,
                              std::span<const uint32_t> row_order,
                              std::vector<double>& out) const {
  out.resize(num_nodes);
  for (size_t r = 0; r < num_nodes; ++r) {
    out[row_order[r]] = values[r * lanes + lane];
  }
}

void BlockVector::SetLane(size_t lane, std::span<const uint32_t> row_order,
                          const double* in) {
  for (size_t r = 0; r < num_nodes; ++r) {
    values[r * lanes + lane] = in[row_order[r]];
  }
}

namespace {

constexpr size_t kRows = SellStructure::kChunkRows;

// How many columns ahead of the arithmetic the scalar/vector kernels
// prefetch the gathered `cur` rows. The block's gather working set
// (num_rows x lanes doubles) spills L2 on serving-size graphs — unlike
// the single-vector pass, whose 8-byte-per-node iterate stays resident,
// which is why that kernel deliberately carries no prefetches — so
// hiding part of the gather miss latency is worth the extra load-port
// traffic here (measured: ~10-20% on a 49k-node / 537k-edge block pass,
// with distance 4 a further ~8% over distance 2 once the block storage
// is cache-line aligned).
constexpr uint64_t kGatherPrefetchCols = 4;

// Portable chunk-range tile of the SpMM pass: kPair rows x kTile lanes
// of accumulators per group (kPair * kTile <= 32 doubles fits the SSE2
// register file), remainder rows one at a time. Grouping rows multiplies
// the number of independent gather chains, which is what hides gather
// latency when the block spills L2; a full kChunkRows x kTile block
// would spill the accumulators instead and turn every inner mul-add into
// a stack round-trip. Per (row, lane) the sum visits edges in the same
// ascending order j as the single-vector pass — see
// FusedPullBlockRange's contract.
template <size_t kPair, size_t kTile>
void BlockPullTile(const uint64_t* chunk_offsets, const uint32_t* sources,
                   const double* weights, const double* bvec,
                   const uint8_t* bvec_rowmask, double d, const double* cur,
                   double* next, size_t lanes, size_t l0, size_t begin,
                   size_t end, size_t num_rows, double* l1_out) {
  double l1[kTile] = {};
  for (size_t c = begin; c < end; ++c) {
    const uint64_t base = chunk_offsets[c];
    const uint64_t len = (chunk_offsets[c + 1] - base) / kRows;
    const size_t row0 = c * kRows;
    const size_t rows = std::min(kRows, num_rows - row0);
    size_t r = 0;
    for (; r + kPair <= rows; r += kPair) {
      const uint32_t* s = sources + base + r;
      const double* w = weights + base + r;
      double sum[kPair][kTile] = {};
      for (uint64_t j = 0; j < len; ++j, s += kRows, w += kRows) {
        if (j + kGatherPrefetchCols < len) {
          for (size_t p = 0; p < kPair; ++p) {
            __builtin_prefetch(
                cur + static_cast<size_t>(s[p + kRows * kGatherPrefetchCols]) *
                          lanes + l0, 0, 1);
          }
        }
        for (size_t p = 0; p < kPair; ++p) {
          const double* cu = cur + static_cast<size_t>(s[p]) * lanes + l0;
          const double wp = w[p];
          for (size_t l = 0; l < kTile; ++l) sum[p][l] += cu[l] * wp;
        }
      }
      for (size_t p = 0; p < kPair; ++p) {
        const size_t v = row0 + r + p;
        const double* cv = cur + v * lanes + l0;
        double* nv = next + v * lanes + l0;
        if (bvec_rowmask == nullptr || bvec_rowmask[v]) {
          const double* bv = bvec + v * lanes + l0;
          for (size_t l = 0; l < kTile; ++l) {
            const double x = d * sum[p][l] + bv[l];
            l1[l] += std::fabs(x - cv[l]);
            nv[l] = x;
          }
        } else {
          for (size_t l = 0; l < kTile; ++l) {
            const double x = d * sum[p][l];
            l1[l] += std::fabs(x - cv[l]);
            nv[l] = x;
          }
        }
      }
    }
    for (; r < rows; ++r) {
      const uint32_t* s = sources + base + r;
      const double* w = weights + base + r;
      double sum[kTile] = {};
      for (uint64_t j = 0; j < len; ++j, s += kRows, w += kRows) {
        const double* cu = cur + static_cast<size_t>(*s) * lanes + l0;
        const double wr = *w;
        for (size_t l = 0; l < kTile; ++l) sum[l] += cu[l] * wr;
      }
      const size_t v = row0 + r;
      const double* cv = cur + v * lanes + l0;
      double* nv = next + v * lanes + l0;
      for (size_t l = 0; l < kTile; ++l) {
        double x = d * sum[l];
        if (bvec_rowmask == nullptr || bvec_rowmask[v]) {
          x += bvec[v * lanes + l0 + l];
        }
        l1[l] += std::fabs(x - cv[l]);
        nv[l] = x;
      }
    }
  }
  for (size_t l = 0; l < kTile; ++l) l1_out[l] = l1[l];
}

#if defined(__x86_64__) && defined(__GNUC__)
#define ORX_BLOCK_SIMD 1

// AVX-512 8-lane tile: one zmm accumulator per chunk row (8 rows x 8
// lanes = 8 zmm of the 32 available), so the j-inner loop walks the
// chunk's sources and weights exactly once, fully sequentially, with 8
// independent gather chains in flight. All arithmetic is explicit
// mul-then-add (never _mm512_fmadd_pd) and the file is built with
// -ffp-contract=off, so every element rounds exactly like the scalar
// kernel and per-lane bit-identity holds on any dispatch path.
template <bool kUseMask>
__attribute__((target("avx512f"))) void BlockPullZmm8(
    const uint64_t* chunk_offsets, const uint32_t* sources,
    const double* weights, const double* bvec, const uint8_t* bvec_rowmask,
    double d, const double* cur, double* next, size_t lanes, size_t l0,
    size_t begin, size_t end, size_t num_rows, double* l1_out) {
  const __m512d vd = _mm512_set1_pd(d);
  __m512d l1 = _mm512_setzero_pd();
  for (size_t c = begin; c < end; ++c) {
    const uint64_t base = chunk_offsets[c];
    const uint64_t len = (chunk_offsets[c + 1] - base) / kRows;
    const size_t row0 = c * kRows;
    const size_t rows = std::min(kRows, num_rows - row0);
    if (rows == kRows) {
      const uint32_t* s = sources + base;
      const double* w = weights + base;
      __m512d acc[kRows];
      for (size_t r = 0; r < kRows; ++r) acc[r] = _mm512_setzero_pd();
      for (uint64_t j = 0; j < len; ++j, s += kRows, w += kRows) {
        if (j + kGatherPrefetchCols < len) {
          for (size_t r = 0; r < kRows; ++r) {
            __builtin_prefetch(
                cur + static_cast<size_t>(s[kRows * kGatherPrefetchCols + r]) *
                          lanes + l0, 0, 1);
          }
        }
        for (size_t r = 0; r < kRows; ++r) {
          const __m512d cu =
              _mm512_loadu_pd(cur + static_cast<size_t>(s[r]) * lanes + l0);
          acc[r] = _mm512_add_pd(acc[r],
                                 _mm512_mul_pd(cu, _mm512_set1_pd(w[r])));
        }
      }
      for (size_t r = 0; r < kRows; ++r) {
        const size_t v = row0 + r;
        const __m512d cv = _mm512_loadu_pd(cur + v * lanes + l0);
        __m512d x = _mm512_mul_pd(vd, acc[r]);
        if (!kUseMask || bvec_rowmask[v]) {
          x = _mm512_add_pd(x, _mm512_loadu_pd(bvec + v * lanes + l0));
        }
        l1 = _mm512_add_pd(l1, _mm512_abs_pd(_mm512_sub_pd(x, cv)));
        _mm512_storeu_pd(next + v * lanes + l0, x);
      }
    } else {
      // The (single) ragged tail chunk falls back to the scalar tile.
      double tail_l1[kRows] = {};
      BlockPullTile<4, kRows>(chunk_offsets, sources, weights, bvec,
                              kUseMask ? bvec_rowmask : nullptr, d, cur, next,
                              lanes, l0, c, c + 1, num_rows, tail_l1);
      l1 = _mm512_add_pd(l1, _mm512_loadu_pd(tail_l1));
    }
  }
  _mm512_storeu_pd(l1_out, l1);
}

// AVX2 4-lane tile, same shape with ymm accumulators (machines without
// AVX-512, and 4-lane remainders of wider blocks). |x| is the sign-bit
// andnot, the exact bit operation std::fabs performs.
template <bool kUseMask>
__attribute__((target("avx2"))) void BlockPullYmm4(
    const uint64_t* chunk_offsets, const uint32_t* sources,
    const double* weights, const double* bvec, const uint8_t* bvec_rowmask,
    double d, const double* cur, double* next, size_t lanes, size_t l0,
    size_t begin, size_t end, size_t num_rows, double* l1_out) {
  constexpr size_t kTile = 4;
  const __m256d vd = _mm256_set1_pd(d);
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d l1 = _mm256_setzero_pd();
  for (size_t c = begin; c < end; ++c) {
    const uint64_t base = chunk_offsets[c];
    const uint64_t len = (chunk_offsets[c + 1] - base) / kRows;
    const size_t row0 = c * kRows;
    const size_t rows = std::min(kRows, num_rows - row0);
    if (rows == kRows) {
      const uint32_t* s = sources + base;
      const double* w = weights + base;
      __m256d acc[kRows];
      for (size_t r = 0; r < kRows; ++r) acc[r] = _mm256_setzero_pd();
      for (uint64_t j = 0; j < len; ++j, s += kRows, w += kRows) {
        if (j + kGatherPrefetchCols < len) {
          for (size_t r = 0; r < kRows; ++r) {
            __builtin_prefetch(
                cur + static_cast<size_t>(s[kRows * kGatherPrefetchCols + r]) *
                          lanes + l0, 0, 1);
          }
        }
        for (size_t r = 0; r < kRows; ++r) {
          const __m256d cu =
              _mm256_loadu_pd(cur + static_cast<size_t>(s[r]) * lanes + l0);
          acc[r] = _mm256_add_pd(acc[r],
                                 _mm256_mul_pd(cu, _mm256_set1_pd(w[r])));
        }
      }
      for (size_t r = 0; r < kRows; ++r) {
        const size_t v = row0 + r;
        const __m256d cv = _mm256_loadu_pd(cur + v * lanes + l0);
        __m256d x = _mm256_mul_pd(vd, acc[r]);
        if (!kUseMask || bvec_rowmask[v]) {
          x = _mm256_add_pd(x, _mm256_loadu_pd(bvec + v * lanes + l0));
        }
        l1 = _mm256_add_pd(l1, _mm256_andnot_pd(sign, _mm256_sub_pd(x, cv)));
        _mm256_storeu_pd(next + v * lanes + l0, x);
      }
    } else {
      double tail_l1[kRows] = {};
      BlockPullTile<4, kTile>(chunk_offsets, sources, weights, bvec,
                              kUseMask ? bvec_rowmask : nullptr, d, cur, next,
                              lanes, l0, c, c + 1, num_rows, tail_l1);
      l1 = _mm256_add_pd(l1, _mm256_loadu_pd(tail_l1));
    }
  }
  _mm256_storeu_pd(l1_out, l1);
}

bool CpuHasAvx512() {
  static const bool has = __builtin_cpu_supports("avx512f") != 0;
  return has;
}

bool CpuHasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
}
#endif  // __x86_64__ && __GNUC__

// Scalar tile dispatch for any width in [1, 8].
void BlockPullScalar(const uint64_t* chunk_offsets, const uint32_t* sources,
                     const double* weights, const double* bvec,
                     const uint8_t* bvec_rowmask, double d, const double* cur,
                     double* next, size_t lanes, size_t l0, size_t lt,
                     size_t begin, size_t end, size_t num_rows,
                     double* l1_out) {
  switch (lt) {
#define ORX_BLOCK_TILE(W)                                                  \
  case W:                                                                  \
    BlockPullTile<4, W>(chunk_offsets, sources, weights, bvec,             \
                        bvec_rowmask, d, cur, next, lanes, l0, begin, end, \
                        num_rows, l1_out);                                 \
    break
    ORX_BLOCK_TILE(1);
    ORX_BLOCK_TILE(2);
    ORX_BLOCK_TILE(3);
    ORX_BLOCK_TILE(4);
    ORX_BLOCK_TILE(5);
    ORX_BLOCK_TILE(6);
    ORX_BLOCK_TILE(7);
    ORX_BLOCK_TILE(8);
#undef ORX_BLOCK_TILE
    default:
      break;
  }
}

}  // namespace

void FusedPullBlockRange(const uint64_t* chunk_offsets,
                         const uint32_t* sources, const double* weights,
                         const double* bvec, const uint8_t* bvec_rowmask,
                         double d, const double* cur, double* next,
                         size_t lanes, size_t begin, size_t end,
                         size_t num_rows, double* l1_out) {
  // Lane tiles of 8 (one zmm / one cache line per row), each re-streaming
  // the structure+weights range once; the widest SIMD kernel the CPU has
  // takes each tile, narrower remainders fall down the chain. Every path
  // computes bit-identical results (see the header contract), so dispatch
  // is purely a speed choice.
  size_t l0 = 0;
  while (l0 < lanes) {
    const size_t rem = lanes - l0;
#if defined(ORX_BLOCK_SIMD)
    if (rem >= 8 && CpuHasAvx512()) {
      if (bvec_rowmask != nullptr) {
        BlockPullZmm8<true>(chunk_offsets, sources, weights, bvec,
                            bvec_rowmask, d, cur, next, lanes, l0, begin,
                            end, num_rows, l1_out + l0);
      } else {
        BlockPullZmm8<false>(chunk_offsets, sources, weights, bvec, nullptr,
                             d, cur, next, lanes, l0, begin, end, num_rows,
                             l1_out + l0);
      }
      l0 += 8;
      continue;
    }
    if (rem >= 4 && CpuHasAvx2()) {
      if (bvec_rowmask != nullptr) {
        BlockPullYmm4<true>(chunk_offsets, sources, weights, bvec,
                            bvec_rowmask, d, cur, next, lanes, l0, begin,
                            end, num_rows, l1_out + l0);
      } else {
        BlockPullYmm4<false>(chunk_offsets, sources, weights, bvec, nullptr,
                             d, cur, next, lanes, l0, begin, end, num_rows,
                             l1_out + l0);
      }
      l0 += 4;
      continue;
    }
#endif
    const size_t lt = std::min<size_t>(rem, 8);
    BlockPullScalar(chunk_offsets, sources, weights, bvec, bvec_rowmask, d,
                    cur, next, lanes, l0, lt, begin, end, num_rows,
                    l1_out + l0);
    l0 += lt;
  }
}

std::vector<size_t> BalancedPartition(std::span<const uint64_t> offsets,
                                      size_t parts) {
  ORX_CHECK(!offsets.empty() && parts > 0);
  const size_t n = offsets.size() - 1;
  const uint64_t total = offsets[n];
  std::vector<size_t> bounds(parts + 1, 0);
  for (size_t t = 1; t < parts; ++t) {
    // First item whose prefix covers t/parts of the weight; clamped so
    // boundaries stay monotone when several targets land in one item.
    const uint64_t target = total * t / parts;
    const auto it =
        std::lower_bound(offsets.begin(), offsets.end() - 1, target);
    bounds[t] = std::max<size_t>(
        bounds[t - 1], static_cast<size_t>(it - offsets.begin()));
  }
  bounds[parts] = n;
  return bounds;
}

void FusedWeightCache::BindLocked(const AuthorityGraph& graph) {
  if (graph_ == nullptr) {
    graph_ = &graph;
  } else {
    ORX_CHECK_MSG(graph_ == &graph,
                  "a FusedWeightCache serves exactly one graph");
  }
}

const std::shared_ptr<const SellStructure>& FusedWeightCache::StructureLocked(
    const AuthorityGraph& graph) {
  if (structure_ == nullptr) {
    structure_ = std::make_shared<const SellStructure>(graph);
  }
  return structure_;
}

std::shared_ptr<const FusedLayout> FusedWeightCache::Get(
    const AuthorityGraph& graph, const TransferRates& rates) {
  const uint64_t fingerprint = rates.Fingerprint();
  MutexLock lock(mu_);
  BindLocked(graph);
  for (Slot& slot : layouts_) {
    if (slot.fingerprint == fingerprint) {
      slot.last_used = ++tick_;
      return slot.layout;
    }
  }
  // Miss: build under the lock — concurrent callers need this same
  // layout, so blocking them is cheaper than building it twice.
  auto layout = std::make_shared<const FusedLayout>(graph, rates,
                                                    StructureLocked(graph));
  if (layouts_.size() >= kMaxLayouts) {
    auto lru = std::min_element(layouts_.begin(), layouts_.end(),
                                [](const Slot& a, const Slot& b) {
                                  return a.last_used < b.last_used;
                                });
    *lru = Slot{fingerprint, ++tick_, layout};
  } else {
    layouts_.push_back(Slot{fingerprint, ++tick_, layout});
  }
  return layout;
}

void FusedWeightCache::Seed(const AuthorityGraph& graph,
                            std::shared_ptr<const FusedLayout> layout) {
  ORX_CHECK(layout != nullptr &&
            layout->num_nodes() == graph.num_nodes());
  MutexLock lock(mu_);
  BindLocked(graph);
  if (structure_ == nullptr) structure_ = layout->shared_structure();
  const uint64_t fingerprint = layout->rates_fingerprint();
  for (Slot& slot : layouts_) {
    if (slot.fingerprint == fingerprint) {
      slot.last_used = ++tick_;
      slot.layout = std::move(layout);
      return;
    }
  }
  layouts_.push_back(Slot{fingerprint, ++tick_, std::move(layout)});
}

std::shared_ptr<const std::vector<size_t>> FusedWeightCache::Partition(
    const AuthorityGraph& graph, size_t parts) {
  MutexLock lock(mu_);
  BindLocked(graph);
  for (const auto& [p, bounds] : partitions_) {
    if (p == parts) return bounds;
  }
  auto bounds = std::make_shared<const std::vector<size_t>>(
      BalancedPartition(StructureLocked(graph)->chunk_offsets, parts));
  partitions_.emplace_back(parts, bounds);
  return bounds;
}

size_t FusedWeightCache::size() const {
  MutexLock lock(mu_);
  return layouts_.size();
}

void FusedWeightCache::Clear() {
  MutexLock lock(mu_);
  layouts_.clear();
  partitions_.clear();
  structure_.reset();
}

}  // namespace orx::graph
