#ifndef ORX_CORE_OBJECTRANK_H_
#define ORX_CORE_OBJECTRANK_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/base_set.h"
#include "graph/authority_graph.h"
#include "graph/spmv_layout.h"
#include "graph/transfer_rates.h"

namespace orx::core {

/// Which inner kernel runs the power iteration. All kernels compute the
/// same fixpoint; they differ in summation order, so converged scores
/// agree to <= 1e-12 L-inf (the equivalence suite in
/// tests/spmv_kernel_test.cc pins this down).
enum class PowerKernel {
  /// Default: the fused SpMV kernel (docs/power_iteration.md). Early
  /// iterations from a sparse start vector run a frontier-aware push;
  /// once the iterate's nonzero density crosses 1/8 the kernel switches
  /// permanently to a pull SpMV over the rate-resolved SELL-8 layout
  /// (graph/spmv_layout.h) with the L1 residual fused into the pass,
  /// partitioned by cumulative in-edge count and executed on a
  /// persistent thread pool (no per-iteration thread spawn).
  kFused,
  /// The pre-fused sequential push loop, ignoring num_threads. Kept as
  /// the reference the equivalence suite compares every kernel against.
  kSequentialPush,
};

/// Parameters of the ObjectRank2 power iteration (Equation 4).
struct ObjectRankOptions {
  /// Damping factor d: probability of following an edge vs. jumping back
  /// to the base set (paper: 0.85, after PageRank [BP98]).
  double damping = 0.85;

  /// Convergence threshold on the L1 distance between consecutive score
  /// vectors (the performance experiments use 0.001).
  double epsilon = 0.001;

  /// Hard iteration cap; reached only on pathological inputs.
  int max_iterations = 200;

  /// Worker threads for the power iteration. The parallel path is
  /// pull-based (each node gathers over its in-edges), so results are
  /// bit-identical for any thread count — per-node sums always accumulate
  /// in the same edge order. The fused kernel additionally clamps this to
  /// the available work (one worker per ~16K edges), so dense small-node
  /// graphs still parallelize and tiny graphs don't pay dispatch
  /// overhead. <= 1 = sequential.
  int num_threads = 1;

  /// Inner kernel; see PowerKernel. The non-default kernel exists for
  /// the equivalence suite.
  PowerKernel kernel = PowerKernel::kFused;

  /// Cooperative cancellation hook, checked once before each power
  /// iteration. When it returns true the solver stops immediately and
  /// marks the result cancelled; the scores it carries are the last
  /// completed iterate and callers are expected to discard them (the
  /// serving layer maps cancellation to kDeadlineExceeded). Unset = never
  /// cancelled. The hook may be called from whichever thread runs the
  /// solve and must be cheap — it sits on the hot path.
  std::function<bool()> cancel;
};

/// Result of a power-iteration run.
struct ObjectRankResult {
  /// r^Q(v) for every node v.
  std::vector<double> scores;
  /// Number of iterations executed.
  int iterations = 0;
  /// False iff max_iterations was hit before the L1 threshold.
  bool converged = false;
  /// True iff options.cancel stopped the solve early; `scores` then holds
  /// the partial iterate and converged is false.
  bool cancelled = false;
};

/// One query of an ObjectRankEngine::ComputeBatch call: the per-lane
/// inputs that vary across the block (base set, warm start), while the
/// numeric options and the cancellation hook are shared batch-wide.
struct BatchQuery {
  /// Required; must be non-empty (same contract as Compute).
  const BaseSet* base = nullptr;
  /// Optional warm start, used when it has one entry per node — exactly
  /// Compute's warm_start parameter.
  const std::vector<double>* warm_start = nullptr;
};

/// The ObjectRank2 fixpoint solver over an authority transfer data graph.
///
/// Computes r = d * A * r + (1 - d) * s  (Equation 4), where A's entries
/// are the authority transfer rates a(e) of Equation 1 resolved against the
/// TransferRates supplied per call (so reformulated rates need no graph
/// rebuild), and s is the normalized base-set vector.
///
/// Note on Equation 4: the paper inherits the 1/|S(Q)| factor from the
/// original 0/1 ObjectRank, but also states that the base-set weights are
/// normalized to sum to one; with a normalized s the uniform special case
/// s_i = 1/|S(Q)| reproduces [BHP04] exactly, so we implement
/// r = d*A*r + (1-d)*s-hat. This matches the worked example of Figure 6.
///
/// The engine carries no per-query state and is const; callers pass
/// warm-start vectors explicitly (Section 6.2 seeds a query with the
/// previous query's scores). Its only mutable member is a thread-safe
/// FusedWeightCache — a memo of rate-resolved edge layouts shared by
/// every Compute on this engine (and by other engines, when injected:
/// ServeSnapshot owns one cache so all requests against a snapshot reuse
/// one materialized layout).
class ObjectRankEngine {
 public:
  explicit ObjectRankEngine(const graph::AuthorityGraph& graph)
      : ObjectRankEngine(graph,
                         std::make_shared<graph::FusedWeightCache>()) {}

  ObjectRankEngine(const graph::AuthorityGraph& graph,
                   std::shared_ptr<graph::FusedWeightCache> fused_cache)
      : graph_(&graph), fused_cache_(std::move(fused_cache)) {
    if (fused_cache_ == nullptr) {
      fused_cache_ = std::make_shared<graph::FusedWeightCache>();
    }
  }

  /// Runs the power iteration. If `warm_start` is non-null and has one
  /// entry per node it is used as the initial vector; otherwise iteration
  /// starts from the base-set vector itself.
  ObjectRankResult Compute(const BaseSet& base,
                           const graph::TransferRates& rates,
                           const ObjectRankOptions& options = {},
                           const std::vector<double>* warm_start = nullptr) const;

  /// Runs one power iteration per query, sharing every streaming read of
  /// the graph across the batch: dense lanes advance together through one
  /// SpMM pass per iteration (graph::FusedPullBlockRange) over a
  /// node-major BlockVector, so structure + fused weights are read once
  /// per pass for all B iterates instead of once per query. RankCache's
  /// builds are its caller: all of their terms are known up front, so no
  /// query ever waits for a block to fill.
  ///
  /// Per-lane semantics are exactly Compute's — queries[i]'s scores,
  /// iteration count, and converged/cancelled flags are bit-identical to
  /// Compute(*queries[i].base, rates, options, queries[i].warm_start),
  /// for any thread count (tests/batch_kernel_test.cc enforces this on randomized
  /// inputs). That holds because each lane runs the identical scalar
  /// frontier push while sparse, joins the shared block only when it goes
  /// dense, accumulates per-edge sums in the same SELL order inside the
  /// block, and has its convergence checked against its own L1 residual
  /// every iteration. Converged and max_iterations-expired lanes retire
  /// — they compact out of the block and the remaining lanes keep
  /// iterating, so B adapts downward as queries finish. A tripped
  /// options.cancel retires every lane as cancelled.
  ///
  /// options.kernel selects the engine as in Compute; the non-fused
  /// kernels have no block form and fall back to per-lane Compute calls
  /// (same results, no sharing).
  std::vector<ObjectRankResult> ComputeBatch(
      const std::vector<BatchQuery>& queries,
      const graph::TransferRates& rates,
      const ObjectRankOptions& options = {}) const;

  /// Computes the query-independent global ObjectRank (base set = all
  /// nodes, uniform).
  ObjectRankResult ComputeGlobal(const graph::TransferRates& rates,
                                 const ObjectRankOptions& options = {}) const;

  const graph::AuthorityGraph& graph() const { return *graph_; }

  /// Replaces the fused-weight cache (nullptr resets to a private one).
  /// Used by the serving layer to share the snapshot-owned cache.
  void set_fused_cache(std::shared_ptr<graph::FusedWeightCache> cache) {
    fused_cache_ = cache != nullptr
                       ? std::move(cache)
                       : std::make_shared<graph::FusedWeightCache>();
  }
  const std::shared_ptr<graph::FusedWeightCache>& fused_cache() const {
    return fused_cache_;
  }

 private:
  const graph::AuthorityGraph* graph_;
  std::shared_ptr<graph::FusedWeightCache> fused_cache_;
};

}  // namespace orx::core

#endif  // ORX_CORE_OBJECTRANK_H_
