#include "net/serve_handler.h"

#include <iterator>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/base_set.h"
#include "explain/explainer.h"
#include "graph/validate.h"
#include "reformulate/reformulator.h"
#include "text/query.h"

namespace orx::net {

SearchResponse ToWire(const serve::ServeResponse& response) {
  const serve::ServeSnapshot& snap = *response.snapshot;
  const core::SearchResult& result = *response.result;
  SearchResponse wire;
  wire.results.reserve(result.top.size());
  for (const core::ScoredNode& r : result.top) {
    WireResult row;
    row.node = r.node;
    row.score = r.score;
    if (r.node < snap.data->num_nodes()) {
      row.type_label =
          snap.data->schema().NodeTypeLabel(snap.data->NodeType(r.node));
      row.display_label = snap.data->DisplayLabel(r.node);
    }
    wire.results.push_back(std::move(row));
  }
  wire.iterations = static_cast<uint32_t>(result.iterations);
  wire.cache_hit = response.cache_hit;
  wire.coalesced = response.coalesced;
  wire.snapshot_version = response.snapshot_version;
  wire.total_seconds = response.total_seconds;
  wire.tier_used = static_cast<uint8_t>(result.tier_used);
  wire.error_bound = result.error_bound;
  return wire;
}

namespace {

/// A stage's failure sink: answers the frame with a kError carrying the
/// status (kUnavailable, kDeadlineExceeded, or the search's error).
serve::SearchService::Failure SendError(ResponderPtr respond, uint64_t id) {
  return [respond = std::move(respond), id](const Status& status) {
    respond->Send(EncodeErrorFrame(id, status));
  };
}

/// Decodes a query string into a QueryVector, mapping emptiness to
/// kInvalidArgument (ParseQuery drops stopwords/garbage silently).
StatusOr<text::QueryVector> ParseWireQuery(const std::string& query) {
  text::QueryVector parsed(text::ParseQuery(query));
  if (parsed.empty()) {
    return InvalidArgumentError("empty query '" + query + "'");
  }
  return parsed;
}

/// True when `memoized` names `result` itself. weak_ptrs compare by
/// owner, which stays allocated, and so unique, while a weak_ptr to it
/// exists.
bool SameResult(const std::weak_ptr<const core::SearchResult>& memoized,
                const std::shared_ptr<const core::SearchResult>& result) {
  return !memoized.owner_before(result) && !result.owner_before(memoized);
}

/// A stage's base set: the request's query over the admitted snapshot.
StatusOr<core::BaseSet> StageBaseSet(const serve::ServeSnapshot& snap,
                                     const text::QueryVector& query) {
  return core::BuildBaseSet(*snap.corpus, query,
                            core::BaseSetMode::kIrWeighted,
                            snap.default_options.bm25);
}

/// Explains `target` over a stage's admitted `response` the one way both
/// stages do (the snapshot's rates and damping, the default
/// ExplainOptions), which is what lets them share the memo, and memoizes
/// a successful explanation.
StatusOr<std::shared_ptr<const explain::Explanation>> BuildExplanation(
    ExplainMemo& memo, const serve::ServeResponse& response,
    const core::BaseSet& base, graph::NodeId target) {
  const serve::ServeSnapshot& snap = *response.snapshot;
  explain::Explainer explainer(*snap.data, *snap.authority);
  auto explanation = explainer.Explain(
      target, base, response.result->scores, snap.rates,
      snap.default_options.objectrank.damping, explain::ExplainOptions{});
  if (!explanation.ok()) return explanation.status();
  auto shared =
      std::make_shared<const explain::Explanation>(*std::move(explanation));
  memo.Insert(response.result, target, shared);
  return shared;
}

}  // namespace

std::shared_ptr<const explain::Explanation> ExplainMemo::Find(
    const std::shared_ptr<const core::SearchResult>& result,
    graph::NodeId target) {
  MutexLock lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->target == target && SameResult(it->result, result)) {
      entries_.splice(entries_.begin(), entries_, it);
      ++hits_;
      return it->explanation;
    }
  }
  ++misses_;
  return nullptr;
}

void ExplainMemo::Insert(
    const std::shared_ptr<const core::SearchResult>& result,
    graph::NodeId target,
    std::shared_ptr<const explain::Explanation> explanation) {
  std::list<Entry> dropped;  // freed after the lock is released
  MutexLock lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    const auto next = std::next(it);
    if (it->result.expired() ||
        (it->target == target && SameResult(it->result, result))) {
      dropped.splice(dropped.end(), entries_, it);
    }
    it = next;
  }
  entries_.push_front(Entry{result, target, std::move(explanation)});
  if (entries_.size() > kEntries) {
    dropped.splice(dropped.end(), entries_, std::prev(entries_.end()));
  }
}

ExplainMemo::Stats ExplainMemo::stats() const {
  MutexLock lock(mu_);
  return {hits_, misses_};
}

void ServeHandler::Handle(Frame frame, ResponderPtr respond) {
  switch (frame.header.op) {
    case Op::kPing:
      respond->Send(
          EncodeFrame(Op::kPing, frame.header.request_id, std::string()));
      return;
    case Op::kSearch:
      HandleSearch(std::move(frame), std::move(respond));
      return;
    case Op::kExplain:
      HandleExplain(std::move(frame), std::move(respond));
      return;
    case Op::kReformulate:
      HandleReformulate(std::move(frame), std::move(respond));
      return;
    case Op::kValidate:
      HandleValidate(frame, respond);
      return;
    case Op::kMetrics:
      HandleMetrics(frame, respond);
      return;
    case Op::kMutate:
      HandleMutate(frame, respond);
      return;
    case Op::kError:
      // kError is response-only; a client sending one is a protocol
      // violation answered in kind.
      respond->Send(EncodeErrorFrame(
          frame.header.request_id,
          InvalidArgumentError("kError is a response-only op")));
      return;
  }
  respond->Send(EncodeErrorFrame(
      frame.header.request_id,
      InternalError("unhandled op " +
                    std::to_string(static_cast<int>(frame.header.op)))));
}

void ServeHandler::HandleSearch(Frame frame, ResponderPtr respond) {
  const uint64_t id = frame.header.request_id;
  auto request = DecodeSearchRequest(frame.payload);
  if (!request.ok()) {
    respond->Send(EncodeErrorFrame(id, request.status()));
    return;
  }
  auto query = ParseWireQuery(request->query);
  if (!query.ok()) {
    respond->Send(EncodeErrorFrame(id, query.status()));
    return;
  }
  serve::ServeRequest serve_request;
  serve_request.query = std::move(*query);
  serve_request.k = request->k;
  serve_request.deadline_seconds = request->deadline_seconds;
  // DecodeSearchRequest admits only kAuto and kExact, so the cast is
  // total.
  serve_request.tier = static_cast<core::SearchTier>(request->tier);
  service_->SubmitAsync(
      std::move(serve_request),
      [respond = std::move(respond),
       id](StatusOr<serve::ServeResponse> response) {
        if (!response.ok()) {
          respond->Send(EncodeErrorFrame(id, response.status()));
          return;
        }
        respond->Send(EncodeFrame(Op::kSearch, id,
                                  EncodeSearchResponse(ToWire(*response))));
      });
}

void ServeHandler::HandleExplain(Frame frame, ResponderPtr respond) {
  const uint64_t id = frame.header.request_id;
  auto request = DecodeExplainRequest(frame.payload);
  if (!request.ok()) {
    respond->Send(EncodeErrorFrame(id, request.status()));
    return;
  }
  auto query = ParseWireQuery(request->query);
  if (!query.ok()) {
    respond->Send(EncodeErrorFrame(id, query.status()));
    return;
  }
  const uint32_t target_rank = request->target_rank;
  serve::ServeRequest serve_request;
  serve_request.query = *query;
  // The search result (scores + top list) feeds the explainer; repeats
  // of the same query hit the service's result cache, so "search then
  // explain rank 2, then rank 3" pays one power iteration total. The
  // explainer itself runs as a stage on a pool worker, never on this
  // loop thread.
  service_->SubmitStage(
      std::move(serve_request),
      [respond, id, memo = memo_, query = std::move(*query),
       target_rank](const serve::ServeResponse& response) {
        const auto& snap = response.snapshot;
        const auto& top = response.result->top;
        if (target_rank == 0 || target_rank > top.size()) {
          respond->Send(EncodeErrorFrame(
              id, InvalidArgumentError(
                      "target rank " + std::to_string(target_rank) +
                      " out of range 1.." + std::to_string(top.size()))));
          return;
        }
        const graph::NodeId target = top[target_rank - 1].node;
        auto explanation = memo->Find(response.result, target);
        if (explanation == nullptr) {
          auto base = StageBaseSet(*snap, query);
          auto built = base.ok()
                           ? BuildExplanation(*memo, response, *base, target)
                           : base.status();
          if (!built.ok()) {
            respond->Send(EncodeErrorFrame(id, built.status()));
            return;
          }
          explanation = *std::move(built);
        }
        // A memoized explanation reports the stage times of the build
        // that produced it.
        ExplainResponse wire;
        wire.text = explanation->subgraph.ToString(*snap->data);
        wire.iterations = static_cast<uint32_t>(explanation->iterations);
        wire.construction_seconds = explanation->construction_seconds;
        wire.adjustment_seconds = explanation->adjustment_seconds;
        respond->Send(
            EncodeFrame(Op::kExplain, id, EncodeExplainResponse(wire)));
      },
      SendError(respond, id));
}

void ServeHandler::HandleReformulate(Frame frame, ResponderPtr respond) {
  const uint64_t id = frame.header.request_id;
  auto request = DecodeReformulateRequest(frame.payload);
  if (!request.ok()) {
    respond->Send(EncodeErrorFrame(id, request.status()));
    return;
  }
  if (request->feedback_ranks.empty()) {
    respond->Send(EncodeErrorFrame(
        id, InvalidArgumentError("reformulate needs at least one "
                                 "feedback rank")));
    return;
  }
  // Each listed rank costs one explanation inside the stage, and a
  // started stage runs to completion, so a repeated rank is refused here,
  // before it can take an admission slot: a request then costs at most
  // one explanation per result.
  std::unordered_set<uint32_t> seen;
  for (uint32_t rank : request->feedback_ranks) {
    if (!seen.insert(rank).second) {
      respond->Send(EncodeErrorFrame(
          id, InvalidArgumentError("feedback rank " + std::to_string(rank) +
                                   " is repeated")));
      return;
    }
  }
  auto query = ParseWireQuery(request->query);
  if (!query.ok()) {
    respond->Send(EncodeErrorFrame(id, query.status()));
    return;
  }
  serve::ServeRequest serve_request;
  serve_request.query = *query;
  service_->SubmitStage(
      std::move(serve_request),
      [respond, id, memo = memo_, query = std::move(*query),
       ranks = std::move(request->feedback_ranks)](
          const serve::ServeResponse& response) {
        const auto& snap = response.snapshot;
        const auto& top = response.result->top;
        std::vector<graph::NodeId> feedback;
        feedback.reserve(ranks.size());
        for (uint32_t rank : ranks) {
          if (rank == 0 || rank > top.size()) {
            respond->Send(EncodeErrorFrame(
                id, InvalidArgumentError(
                        "feedback rank " + std::to_string(rank) +
                        " out of range 1.." + std::to_string(top.size()))));
            return;
          }
          feedback.push_back(top[rank - 1].node);
        }
        // Reformulator::Reformulate's two stages, with the explanations
        // taken from the memo where kExplain (or an earlier reformulate)
        // already built them. The base set is built on the first miss.
        std::optional<core::BaseSet> base;
        std::vector<std::shared_ptr<const explain::Explanation>> explained;
        explained.reserve(feedback.size());
        for (graph::NodeId target : feedback) {
          auto explanation = memo->Find(response.result, target);
          if (explanation == nullptr) {
            if (!base.has_value()) {
              auto base_set = StageBaseSet(*snap, query);
              if (!base_set.ok()) {
                respond->Send(EncodeErrorFrame(id, base_set.status()));
                return;
              }
              base = *std::move(base_set);
            }
            auto built = BuildExplanation(*memo, response, *base, target);
            if (!built.ok()) {
              // As in Reformulator::ExplainFeedback: an object no
              // authority reaches is skipped.
              if (built.status().code() == StatusCode::kNotFound) continue;
              respond->Send(EncodeErrorFrame(id, built.status()));
              return;
            }
            explanation = *std::move(built);
          }
          explained.push_back(std::move(explanation));
        }
        std::vector<const explain::Explanation*> views;
        views.reserve(explained.size());
        for (const auto& explanation : explained) {
          views.push_back(explanation.get());
        }
        reform::ReformulationOptions options;
        options.damping = snap->default_options.objectrank.damping;
        reform::Reformulator reformulator(*snap->data, *snap->authority,
                                          *snap->corpus);
        const reform::ReformulationResult result =
            reformulator.Learn(query, snap->rates, views, options);
        ReformulateResponse wire;
        wire.reformulated_query = result.query.ToString();
        wire.top_expansion_terms = result.top_expansion_terms;
        wire.reformulation_seconds = result.reformulation_seconds;
        respond->Send(EncodeFrame(Op::kReformulate, id,
                                  EncodeReformulateResponse(wire)));
      },
      SendError(respond, id));
}

void ServeHandler::HandleValidate(const Frame& frame,
                                  const ResponderPtr& respond) {
  auto snap = service_->snapshot();
  ValidateResponse wire;
  Status status = graph::ValidateInvariants(
      *snap->authority, snap->rates.num_slots());
  if (status.ok() && snap->fused_cache != nullptr) {
    // Validate the layout requests actually stream (memoized; this does
    // not build a second copy on the serve path).
    auto layout = snap->fused_cache->Get(*snap->authority, snap->rates);
    status = graph::ValidateInvariants(*layout);
  }
  wire.ok = status.ok();
  wire.report = status.ok() ? "snapshot OK" : status.ToString();
  respond->Send(EncodeFrame(Op::kValidate, frame.header.request_id,
                            EncodeValidateResponse(wire)));
}

void ServeHandler::HandleMetrics(const Frame& frame,
                                 const ResponderPtr& respond) {
  MetricsResponse wire;
  wire.serve = service_->Snapshot();
  if (server_stats_) {
    const ServerStats stats = server_stats_();
    wire.connections_accepted = stats.accepted;
    wire.connections_open = stats.open;
    wire.frames_received = stats.frames_received;
    wire.frames_sent = stats.frames_sent;
    wire.error_frames_sent = stats.error_frames_sent;
    wire.decode_errors = stats.decode_errors;
    wire.backpressure_closes = stats.backpressure_closes;
    wire.idle_closes = stats.idle_closes;
  }
  if (mutation_.log != nullptr) {
    const mutate::DeltaLog::Stats log = mutation_.log->stats();
    wire.mutate_accepted = log.appended;
    wire.mutate_rejected = log.rejected;
    wire.mutate_queued = log.queued;
  }
  if (mutation_.epochs != nullptr) {
    wire.epochs_live = mutation_.epochs->live();
  }
  if (mutation_.builder != nullptr) {
    const mutate::SnapshotBuilder::Stats builder = mutation_.builder->stats();
    wire.snapshots_published = builder.publications;
    wire.rank_terms_reused = builder.terms_reused;
    wire.rank_terms_refreshed = builder.terms_refreshed;
  }
  respond->Send(EncodeFrame(Op::kMetrics, frame.header.request_id,
                            EncodeMetricsResponse(wire)));
}

void ServeHandler::HandleMutate(const Frame& frame,
                                const ResponderPtr& respond) {
  const uint64_t id = frame.header.request_id;
  if (mutation_.log == nullptr) {
    respond->Send(EncodeErrorFrame(
        id, FailedPreconditionError(
                "server is read-only (no write path configured)")));
    return;
  }
  auto request = DecodeMutateRequest(frame.payload);
  if (!request.ok()) {
    respond->Send(EncodeErrorFrame(id, request.status()));
    return;
  }
  // Append is cheap (static validation + a queue push), so it runs
  // synchronously on the worker loop; the heavy rebuild work happens on
  // the snapshot builder's thread. kUnavailable on a full log is the
  // same shed-don't-queue contract as search admission.
  auto sequence = mutation_.log->Append(std::move(request->batch));
  if (!sequence.ok()) {
    respond->Send(EncodeErrorFrame(id, sequence.status()));
    return;
  }
  MutateResponse wire;
  wire.sequence = *sequence;
  wire.queued = mutation_.log->stats().queued;
  respond->Send(
      EncodeFrame(Op::kMutate, id, EncodeMutateResponse(wire)));
}

}  // namespace orx::net
