// Unit + integration tests of the live write path: mutation batch
// semantics (atomicity, intra-batch references, detach-only removal),
// the bounded DeltaLog (sequences, backpressure, close semantics), the
// EpochManager accounting, and the SnapshotBuilder end to end — a write
// acknowledged by the log becomes visible to searches through a
// hot-swapped snapshot.

#include "mutate/mutation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datasets/dblp_generator.h"
#include "mutate/delta_log.h"
#include "mutate/epoch.h"
#include "mutate/incremental.h"
#include "mutate/snapshot_builder.h"
#include "serve/search_service.h"
#include "serve/snapshot.h"
#include "text/query.h"

namespace orx::mutate {
namespace {

using datasets::DblpDataset;
using datasets::DblpGeneratorConfig;
using datasets::GenerateDblp;

/// A tiny generated DBLP world shared by the fixtures: schema handles,
/// the immutable generated dataset, and ground-truth rates.
struct TinyWorld {
  std::shared_ptr<DblpDataset> owner;
  graph::TransferRates rates;

  explicit TinyWorld(uint32_t papers, uint64_t seed = 11)
      : owner(std::make_shared<DblpDataset>(
            GenerateDblp(DblpGeneratorConfig::Tiny(papers, seed)))),
        rates(datasets::DblpGroundTruthRates(owner->dataset.schema(),
                                             owner->types)) {}

  const graph::SchemaGraph& schema() const {
    return owner->dataset.schema();
  }
  const graph::DataGraph& data() const { return owner->dataset.data(); }
  const datasets::DblpTypes& types() const { return owner->types; }

  std::shared_ptr<const serve::ServeSnapshot> Snapshot() const {
    return std::make_shared<serve::ServeSnapshot>(serve::SnapshotFromOwner(
        owner, owner->dataset.data(), owner->dataset.authority(),
        owner->dataset.corpus(), rates));
  }

  graph::NodeId FirstOfType(graph::TypeId type, size_t skip = 0) const {
    const graph::DataGraph& g = data();
    for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.num_nodes());
         ++v) {
      if (g.NodeType(v) == type) {
        if (skip == 0) return v;
        --skip;
      }
    }
    ADD_FAILURE() << "no node of type " << type;
    return graph::kInvalidNodeId;
  }
};

// --- ApplyBatch ------------------------------------------------------------

TEST(ApplyBatchTest, AddNodeAssignsDenseIdsWithIntraBatchReferences) {
  TinyWorld world(40);
  graph::DataGraph g = world.data();
  const graph::NodeId base = static_cast<graph::NodeId>(g.num_nodes());
  const graph::NodeId existing = world.FirstOfType(world.types().paper);

  MutationBatch batch;
  batch.mutations.push_back(Mutation::AddNode(
      world.types().paper, {{"title", "fresh paper one"}}));
  batch.mutations.push_back(Mutation::AddNode(
      world.types().paper, {{"title", "fresh paper two"}}));
  // The second new node cites the first, and the first cites an
  // existing paper — both addressed by their batch-assigned dense ids.
  batch.mutations.push_back(
      Mutation::AddEdge(base + 1, base, world.types().cites));
  batch.mutations.push_back(
      Mutation::AddEdge(base, existing, world.types().cites));

  ApplyEffects effects;
  ASSERT_TRUE(ApplyBatch(g, batch, &effects).ok());
  EXPECT_EQ(g.num_nodes(), base + 2u);
  EXPECT_EQ(g.NodeType(base), world.types().paper);
  EXPECT_EQ(g.Text(base), "fresh paper one");
  EXPECT_EQ(effects.new_nodes, (std::vector<graph::NodeId>{base, base + 1}));
  EXPECT_TRUE(effects.stats_changed);
}

TEST(ApplyBatchTest, FailureLeavesGraphUntouched) {
  TinyWorld world(40);
  graph::DataGraph g = world.data();
  const size_t nodes_before = g.num_nodes();
  const graph::NodeId paper = world.FirstOfType(world.types().paper);

  MutationBatch batch;
  batch.mutations.push_back(Mutation::AddNode(
      world.types().paper, {{"title", "doomed"}}));
  batch.mutations.push_back(Mutation::UpdateNodeText(
      paper, {{"title", "also doomed"}}));
  // Dangling endpoint: the whole batch must roll back.
  batch.mutations.push_back(Mutation::AddEdge(
      paper, static_cast<graph::NodeId>(nodes_before + 99),
      world.types().cites));

  ApplyEffects effects;
  Status applied = ApplyBatch(g, batch, &effects);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(g.num_nodes(), nodes_before);
  EXPECT_EQ(g.Text(paper), world.data().Text(paper));
}

TEST(ApplyBatchTest, ExactDuplicateEdgeIsRejected) {
  TinyWorld world(40);
  graph::DataGraph g = world.data();
  ASSERT_FALSE(g.edges().empty());
  const graph::DataEdge edge = g.edges().front();

  MutationBatch batch;
  batch.mutations.push_back(Mutation::AddEdge(edge.from, edge.to, edge.type));
  EXPECT_FALSE(ApplyBatch(g, batch).ok());
}

TEST(ApplyBatchTest, RemoveNodeDetachesButKeepsIdsDense) {
  TinyWorld world(40);
  graph::DataGraph g = world.data();
  const size_t nodes_before = g.num_nodes();
  ASSERT_FALSE(g.edges().empty());
  const graph::NodeId victim = g.edges().front().from;

  MutationBatch batch;
  batch.mutations.push_back(Mutation::RemoveNode(victim));
  ApplyEffects effects;
  ASSERT_TRUE(ApplyBatch(g, batch, &effects).ok());
  EXPECT_EQ(g.num_nodes(), nodes_before);  // husk stays allocated
  for (const graph::DataEdge& e : g.edges()) {
    EXPECT_NE(e.from, victim);
    EXPECT_NE(e.to, victim);
  }
  EXPECT_EQ(g.Text(victim), "");
  EXPECT_TRUE(effects.stats_changed);
}

TEST(ApplyBatchTest, EdgeOnlyBatchDoesNotTouchCorpusStats) {
  TinyWorld world(40);
  graph::DataGraph g = world.data();
  const graph::NodeId a = world.FirstOfType(world.types().paper, 0);
  const graph::NodeId author = world.FirstOfType(world.types().author);

  MutationBatch batch;
  batch.mutations.push_back(Mutation::AddEdge(a, author, world.types().by));
  ApplyEffects effects;
  Status applied = ApplyBatch(g, batch, &effects);
  if (applied.ok()) {  // the generator may already have this authorship
    EXPECT_FALSE(effects.stats_changed);
    EXPECT_EQ(effects.edge_endpoints,
              (std::vector<graph::NodeId>{a, author}));
  }
}

TEST(ValidateStaticTest, RejectsOutOfRangeTypeIds) {
  TinyWorld world(40);
  MutationBatch batch;
  batch.mutations.push_back(
      Mutation::AddNode(static_cast<graph::TypeId>(9999), {}));
  EXPECT_EQ(ValidateStatic(batch, world.schema()).code(),
            StatusCode::kInvalidArgument);

  MutationBatch edge_batch;
  edge_batch.mutations.push_back(
      Mutation::AddEdge(0, 1, static_cast<graph::EdgeTypeId>(9999)));
  EXPECT_EQ(ValidateStatic(edge_batch, world.schema()).code(),
            StatusCode::kInvalidArgument);
}

// --- DeltaLog --------------------------------------------------------------

MutationBatch TextBatch(graph::NodeId node, const std::string& text) {
  MutationBatch batch;
  batch.mutations.push_back(Mutation::UpdateNodeText(node, {{"title", text}}));
  return batch;
}

TEST(DeltaLogTest, AppendAssignsMonotoneSequences) {
  TinyWorld world(40);
  DeltaLog log(world.schema());
  auto s1 = log.Append(TextBatch(0, "one"));
  auto s2 = log.Append(TextBatch(1, "two"));
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*s1, 1u);
  EXPECT_EQ(*s2, 2u);
  const DeltaLog::Stats stats = log.stats();
  EXPECT_EQ(stats.appended, 2u);
  EXPECT_EQ(stats.queued, 2u);
  EXPECT_EQ(stats.next_sequence, 3u);
}

TEST(DeltaLogTest, AppendValidatesStatically) {
  TinyWorld world(40);
  DeltaLog log(world.schema());
  MutationBatch bad;
  bad.mutations.push_back(
      Mutation::AddNode(static_cast<graph::TypeId>(9999), {}));
  EXPECT_EQ(log.Append(std::move(bad)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(log.stats().rejected, 1u);
  EXPECT_EQ(log.stats().queued, 0u);
}

TEST(DeltaLogTest, FullLogShedsWithUnavailable) {
  TinyWorld world(40);
  DeltaLog::Options options;
  options.capacity = 2;
  DeltaLog log(world.schema(), options);
  ASSERT_TRUE(log.Append(TextBatch(0, "a")).ok());
  ASSERT_TRUE(log.Append(TextBatch(0, "b")).ok());
  EXPECT_EQ(log.Append(TextBatch(0, "c")).status().code(),
            StatusCode::kUnavailable);
  // Draining frees capacity again.
  EXPECT_EQ(log.Drain(1).size(), 1u);
  EXPECT_TRUE(log.Append(TextBatch(0, "c")).ok());
}

TEST(DeltaLogTest, CloseRejectsAppendsButDrainsQueued) {
  TinyWorld world(40);
  DeltaLog log(world.schema());
  ASSERT_TRUE(log.Append(TextBatch(0, "queued")).ok());
  log.Close();
  EXPECT_EQ(log.Append(TextBatch(0, "late")).status().code(),
            StatusCode::kFailedPrecondition);
  std::vector<DeltaLog::PendingBatch> drained = log.Drain(8);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].sequence, 1u);
  // Closed and fully drained: the empty result is the terminal signal.
  EXPECT_TRUE(log.Drain(8).empty());
}

TEST(DeltaLogTest, DrainBlocksUntilAppend) {
  TinyWorld world(40);
  DeltaLog log(world.schema());
  std::atomic<bool> drained{false};
  std::thread consumer([&] {
    std::vector<DeltaLog::PendingBatch> got = log.Drain(8);
    EXPECT_EQ(got.size(), 1u);
    drained.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(drained.load());
  ASSERT_TRUE(log.Append(TextBatch(0, "wake")).ok());
  consumer.join();
  EXPECT_TRUE(drained.load());
}

// --- EpochManager ----------------------------------------------------------

TEST(EpochManagerTest, CountsPublishAndReclaim) {
  TinyWorld world(40);
  EpochManager epochs;
  auto tracked = epochs.Publish(world.Snapshot());
  EXPECT_EQ(epochs.published(), 1u);
  EXPECT_EQ(epochs.reclaimed(), 0u);
  EXPECT_EQ(epochs.live(), 1u);

  auto reader = tracked;  // a pinned reader
  tracked.reset();
  EXPECT_EQ(epochs.reclaimed(), 0u);  // reader still holds the epoch
  reader.reset();
  EXPECT_EQ(epochs.reclaimed(), 1u);
  EXPECT_EQ(epochs.live(), 0u);
}

TEST(EpochManagerTest, WaitForReclaimUnderBlocksUntilRelease) {
  TinyWorld world(40);
  EpochManager epochs;
  auto a = epochs.Publish(world.Snapshot());
  auto b = epochs.Publish(world.Snapshot());
  EXPECT_FALSE(epochs.WaitForReclaimUnder(2, 0.05));
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    a.reset();
  });
  EXPECT_TRUE(epochs.WaitForReclaimUnder(2, 5.0));
  releaser.join();
  b.reset();
  EXPECT_EQ(epochs.reclaimed(), 2u);
}

TEST(EpochManagerTest, ReclaimAfterManagerDestructionIsSafe) {
  TinyWorld world(40);
  std::shared_ptr<const serve::ServeSnapshot> survivor;
  {
    EpochManager epochs;
    survivor = epochs.Publish(world.Snapshot());
  }
  // The manager is gone; dropping the last reference must not touch
  // freed state (the deleter shares the counter block).
  survivor.reset();
}

// --- SnapshotBuilder end to end --------------------------------------------

serve::ServeRequest MakeRequest(const std::string& query_text) {
  serve::ServeRequest request;
  request.query = text::QueryVector(text::ParseQuery(query_text));
  return request;
}

TEST(SnapshotBuilderTest, AcknowledgedWriteBecomesSearchable) {
  TinyWorld world(60);
  auto seed = world.Snapshot();
  serve::SearchService service(seed, {});
  DeltaLog log(world.schema());
  EpochManager epochs;
  SnapshotBuilder builder(&service, &log, &epochs, seed);
  builder.Start();

  // The unique term is absent before the write...
  auto before = service.Submit(MakeRequest("zyzzyvaquery")).get();
  EXPECT_FALSE(before.ok());

  const graph::NodeId new_node =
      static_cast<graph::NodeId>(world.data().num_nodes());
  MutationBatch batch;
  batch.mutations.push_back(Mutation::AddNode(
      world.types().paper, {{"title", "zyzzyvaquery systems"}}));
  batch.mutations.push_back(Mutation::AddEdge(
      new_node, world.FirstOfType(world.types().paper),
      world.types().cites));
  auto sequence = log.Append(std::move(batch));
  ASSERT_TRUE(sequence.ok());
  ASSERT_TRUE(builder.WaitForSequence(*sequence, 30.0));

  // ...and lands in the hot-swapped snapshot afterwards.
  EXPECT_GE(service.snapshot_version(), 2u);
  auto after = service.Submit(MakeRequest("zyzzyvaquery")).get();
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_FALSE(after->result->top.empty());
  EXPECT_EQ(after->result->top.front().node, new_node);

  builder.Stop();
  const SnapshotBuilder::Stats stats = builder.stats();
  EXPECT_EQ(stats.batches_applied, 1u);
  EXPECT_EQ(stats.mutations_applied, 2u);
  EXPECT_GE(stats.publications, 1u);
  EXPECT_GE(stats.corpus_rebuilds, 1u);
  EXPECT_EQ(stats.applied_sequence, *sequence);
  EXPECT_GE(epochs.published(), 1u);
}

TEST(SnapshotBuilderTest, ApplyTimeRejectionAdvancesSequence) {
  TinyWorld world(60);
  auto seed = world.Snapshot();
  serve::SearchService service(seed, {});
  DeltaLog log(world.schema());
  EpochManager epochs;
  SnapshotBuilder builder(&service, &log, &epochs, seed);
  builder.Start();

  // Statically fine, but the edge already exists: rejected at apply.
  ASSERT_FALSE(world.data().edges().empty());
  const graph::DataEdge existing = world.data().edges().front();
  MutationBatch duplicate;
  duplicate.mutations.push_back(
      Mutation::AddEdge(existing.from, existing.to, existing.type));
  auto sequence = log.Append(std::move(duplicate));
  ASSERT_TRUE(sequence.ok());
  ASSERT_TRUE(builder.WaitForSequence(*sequence, 30.0));

  builder.Stop();
  const SnapshotBuilder::Stats stats = builder.stats();
  EXPECT_EQ(stats.batches_applied, 0u);
  EXPECT_EQ(stats.batches_rejected, 1u);
  EXPECT_EQ(stats.applied_sequence, *sequence);
  EXPECT_FALSE(stats.last_reject.empty());
}

TEST(SnapshotBuilderTest, StopDrainsEveryAcknowledgedBatch) {
  TinyWorld world(60);
  auto seed = world.Snapshot();
  serve::SearchService service(seed, {});
  DeltaLog log(world.schema());
  EpochManager epochs;
  SnapshotBuilder builder(&service, &log, &epochs, seed);
  builder.Start();

  const graph::NodeId paper = world.FirstOfType(world.types().paper);
  uint64_t last = 0;
  for (int i = 0; i < 20; ++i) {
    auto sequence =
        log.Append(TextBatch(paper, "revision " + std::to_string(i)));
    ASSERT_TRUE(sequence.ok());
    last = *sequence;
  }
  builder.Stop();  // must drain all 20, not abandon the queue
  const SnapshotBuilder::Stats stats = builder.stats();
  EXPECT_EQ(stats.applied_sequence, last);
  EXPECT_EQ(stats.batches_applied, 20u);
  EXPECT_EQ(log.stats().queued, 0u);
  // Post-drain, the service serves the final revision.
  auto response = service.Submit(MakeRequest("revision")).get();
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_FALSE(response->result->top.empty());
  EXPECT_EQ(response->result->top.front().node, paper);
}

}  // namespace
}  // namespace orx::mutate
