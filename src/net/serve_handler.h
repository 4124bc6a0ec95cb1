#ifndef ORX_NET_SERVE_HANDLER_H_
#define ORX_NET_SERVE_HANDLER_H_

#include <functional>
#include <memory>
#include <utility>

#include "mutate/delta_log.h"
#include "mutate/epoch.h"
#include "mutate/snapshot_builder.h"
#include "net/frame.h"
#include "net/server.h"
#include "serve/search_service.h"

namespace orx::net {

/// Binds the ORXN protocol ops to a serve::SearchService (and, through
/// the service's pinned snapshots, to the explainer and reformulator).
/// One instance serves every connection; it owns no mutable state beyond
/// the wiring, so Handle() is safe from any worker loop concurrently.
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
};

}  // namespace orx::net

#endif  // ORX_NET_SERVE_HANDLER_H_
