#ifndef ORX_NET_SERVE_HANDLER_H_
#define ORX_NET_SERVE_HANDLER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <utility>

#include "common/mutex.h"
#include "core/searcher.h"
#include "explain/explainer.h"
#include "mutate/delta_log.h"
#include "mutate/epoch.h"
#include "mutate/snapshot_builder.h"
#include "net/frame.h"
#include "net/server.h"
#include "serve/search_service.h"

namespace orx::net {

/// The explaining subgraphs the kExplain and kReformulate stages built
/// most recently, so that a kReformulate after a kExplain of the same
/// result reuses the subgraph the user was shown instead of building it
/// again ("a vote for object v is a vote for its explaining subgraph",
/// §5).
///
/// An entry is keyed by the identity of the admitted search result it
/// explains (ServeResponse::result) plus the target node, and holds the
/// result as a weak_ptr: it never keeps a result alive, and it can never
/// match a re-executed result, a result of another snapshot version, or
/// a freed one. A stage only ever receives a current-version result that
/// carries its score vector, so a matching result fixes the base set,
/// scores, rates and snapshot the explanation was built from. Every
/// stage explains with the snapshot's damping and the default
/// ExplainOptions, so a match is the explanation the stage would build.
///
/// At most kEntries entries: an insert first drops the entries whose
/// result has been freed, then the least recently used ones. One leaf
/// lock guards the entries; explanations are built outside it.
class ExplainMemo {
 public:
  /// The bound, in entries. Sixteen hold the explanations of the last
  /// eight paper sessions (explain rank 1, then reformulate {1,2}),
  /// whatever the graph's size.
  static constexpr size_t kEntries = 16;

  /// Lookups answered from the memo (hits) and not (misses).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  /// The memoized explanation of `target` over `result`, or null.
  std::shared_ptr<const explain::Explanation> Find(
      const std::shared_ptr<const core::SearchResult>& result,
      graph::NodeId target) ORX_LOCKS_EXCLUDED(mu_);

  /// Memoizes `explanation` as `target`'s over `result`, replacing an
  /// entry for the same pair.
  void Insert(const std::shared_ptr<const core::SearchResult>& result,
              graph::NodeId target,
              std::shared_ptr<const explain::Explanation> explanation)
      ORX_LOCKS_EXCLUDED(mu_);

  Stats stats() const ORX_LOCKS_EXCLUDED(mu_);

 private:
  struct Entry {
    std::weak_ptr<const core::SearchResult> result;
    graph::NodeId target = graph::kInvalidNodeId;
    std::shared_ptr<const explain::Explanation> explanation;
  };

  mutable Mutex mu_{"serve_handler.explain_memo"};
  /// Front = most recently used.
  std::list<Entry> entries_ ORX_GUARDED_BY(mu_);
  uint64_t hits_ ORX_GUARDED_BY(mu_) = 0;
  uint64_t misses_ ORX_GUARDED_BY(mu_) = 0;
};

/// Renders the service's ServeResponse into the kSearch wire shape, with
/// labels resolved against the snapshot it was admitted with.
SearchResponse ToWire(const serve::ServeResponse& response);

/// Binds the ORXN protocol ops to a serve::SearchService (and, through
/// the service's pinned snapshots, to the explainer and reformulator).
/// One instance serves every connection, and Handle() is safe from any
/// worker loop concurrently. The handler owns one piece of mutable
/// state, its ExplainMemo: both explain stages look their subgraph up
/// there first and memoize what they build.
///
/// Threading: loop threads only decode, look up and encode. Cheap ops
/// (ping, metrics, validate, mutate) answer synchronously on the worker
/// loop thread. kSearch goes through SearchService::SubmitAsync: a
/// result-cache hit is encoded on the loop, and a miss is encoded by the
/// service pool thread that executed it. kExplain and kReformulate go
/// through SearchService::SubmitStage, so the explainer and the
/// reformulator always run on a pool worker — also when their search is
/// a cache hit — inside an admission slot and under the request's
/// deadline. Admission rejections surface as kError frames carrying
/// kUnavailable, and an expired deadline as kDeadlineExceeded: under
/// overload every frame is still *answered* (load shedding is an
/// answer), which is what the load client's zero-dropped-frames
/// accounting measures.
class ServeHandler {
 public:
  explicit ServeHandler(serve::SearchService* service)
      : service_(service) {}

  /// Optional: lets the kMetrics op report the transport's counters next
  /// to the service's. Set after the Server exists (the server needs the
  /// handler first, so this closes the construction cycle).
  void set_server_stats(std::function<ServerStats()> stats) {
    server_stats_ = std::move(stats);
  }

  /// The write-path wiring the kMutate op appends through; all three
  /// pointers must outlive the handler. A handler without hooks is a
  /// read-only server: kMutate answers kError/kFailedPrecondition.
  struct MutationHooks {
    mutate::DeltaLog* log = nullptr;
    mutate::EpochManager* epochs = nullptr;
    /// Optional: the builder whose stats back the kMetrics write-side
    /// counters (null = log/epoch counters only).
    mutate::SnapshotBuilder* builder = nullptr;
  };
  void set_mutation_hooks(MutationHooks hooks) { mutation_ = hooks; }

  /// The Server::FrameHandler entry point.
  void Handle(Frame frame, ResponderPtr respond);

  /// The explain memo's hit and miss counts.
  ExplainMemo::Stats explain_memo_stats() const { return memo_->stats(); }

 private:
  void HandleSearch(Frame frame, ResponderPtr respond);
  void HandleExplain(Frame frame, ResponderPtr respond);
  void HandleReformulate(Frame frame, ResponderPtr respond);
  void HandleValidate(const Frame& frame, const ResponderPtr& respond);
  void HandleMetrics(const Frame& frame, const ResponderPtr& respond);
  void HandleMutate(const Frame& frame, const ResponderPtr& respond);

  serve::SearchService* service_;
  std::function<ServerStats()> server_stats_;
  MutationHooks mutation_;
  /// Shared with every stage in flight, so a stage that outlives the
  /// handler still has its memo.
  std::shared_ptr<ExplainMemo> memo_ = std::make_shared<ExplainMemo>();
};

}  // namespace orx::net

#endif  // ORX_NET_SERVE_HANDLER_H_
