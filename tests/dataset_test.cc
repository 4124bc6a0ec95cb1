#include "datasets/dataset.h"

#include <gtest/gtest.h>

#include "datasets/bio_schema.h"
#include "datasets/dblp_generator.h"
#include "datasets/dblp_schema.h"
#include "graph/conformance.h"

namespace orx::datasets {
namespace {

TEST(DatasetTest, FinalizeBuildsIndexes) {
  DblpTypes types;
  Dataset dataset(MakeDblpSchema(&types), "test");
  EXPECT_FALSE(dataset.finalized());
  graph::NodeId p = *dataset.mutable_data().AddNode(types.paper,
                                                    {{"Title", "olap"}});
  (void)p;
  dataset.Finalize();
  ASSERT_TRUE(dataset.finalized());
  EXPECT_EQ(dataset.authority().num_nodes(), 1u);
  EXPECT_EQ(dataset.corpus().num_docs(), 1u);
  EXPECT_EQ(dataset.name(), "test");
  EXPECT_GT(dataset.MemoryFootprintBytes(), 0u);
}

class InducedSubgraphTest : public ::testing::Test {
 protected:
  InducedSubgraphTest() : schema_(MakeDblpSchema(&types_)) {
    data_ = std::make_unique<graph::DataGraph>(*schema_);
    // Chain: p0 -> p1 -> p2 -> p3 (cites).
    for (int i = 0; i < 4; ++i) {
      papers_.push_back(*data_->AddNode(
          types_.paper, {{"Title", "paper" + std::to_string(i)}}));
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(
          data_->AddEdge(papers_[i], papers_[i + 1], types_.cites).ok());
    }
  }

  DblpTypes types_;
  std::unique_ptr<graph::SchemaGraph> schema_;
  std::unique_ptr<graph::DataGraph> data_;
  std::vector<graph::NodeId> papers_;
};

TEST_F(InducedSubgraphTest, ZeroHopsKeepsOnlySeeds) {
  std::vector<bool> seed(4, false);
  seed[0] = seed[1] = true;
  auto sub = InducedSubgraph(*data_, seed, 0);
  EXPECT_EQ(sub->num_nodes(), 2u);
  EXPECT_EQ(sub->num_edges(), 1u);  // p0 -> p1 survives
  EXPECT_TRUE(graph::CheckConformance(*sub, *schema_).ok());
}

TEST_F(InducedSubgraphTest, OneHopExpandsUndirected) {
  std::vector<bool> seed(4, false);
  seed[2] = true;
  auto sub = InducedSubgraph(*data_, seed, 1);
  // p2 plus its neighbors p1 (in-edge) and p3 (out-edge).
  EXPECT_EQ(sub->num_nodes(), 3u);
  EXPECT_EQ(sub->num_edges(), 2u);
}

TEST_F(InducedSubgraphTest, AttributesSurvive) {
  std::vector<bool> seed(4, false);
  seed[3] = true;
  auto sub = InducedSubgraph(*data_, seed, 0);
  ASSERT_EQ(sub->num_nodes(), 1u);
  EXPECT_EQ(sub->AttributeValue(0, "Title"), "paper3");
}

TEST_F(InducedSubgraphTest, FullSeedIsIdentity) {
  std::vector<bool> seed(4, true);
  auto sub = InducedSubgraph(*data_, seed, 0);
  EXPECT_EQ(sub->num_nodes(), data_->num_nodes());
  EXPECT_EQ(sub->num_edges(), data_->num_edges());
}

TEST(ExtractKeywordSubsetTest, SelectsByTypeAndKeyword) {
  DblpDataset dblp = GenerateDblp(DblpGeneratorConfig::Tiny(500, 10));
  const graph::DataGraph& data = dblp.dataset.data();
  auto sub = ExtractKeywordSubset(data, dblp.dataset.corpus(), "data",
                                  dblp.types.paper, /*expand_hops=*/1);
  ASSERT_NE(sub, nullptr);
  EXPECT_GT(sub->num_nodes(), 0u);
  EXPECT_LE(sub->num_nodes(), data.num_nodes());

  auto none = ExtractKeywordSubset(data, dblp.dataset.corpus(),
                                   "zzznotaword", dblp.types.paper, 1);
  EXPECT_EQ(none, nullptr);
}

TEST(DatasetResetTest, ResetDataClearsIndexes) {
  DblpTypes types;
  Dataset dataset(MakeDblpSchema(&types), "reset-test");
  *dataset.mutable_data().AddNode(types.paper, {{"Title", "one"}});
  dataset.Finalize();
  ASSERT_TRUE(dataset.finalized());

  auto replacement =
      std::make_unique<graph::DataGraph>(dataset.schema());
  *replacement->AddNode(types.paper, {{"Title", "two"}});
  *replacement->AddNode(types.paper, {{"Title", "three"}});
  dataset.ResetData(std::move(replacement));
  EXPECT_FALSE(dataset.finalized());
  dataset.Finalize();
  EXPECT_EQ(dataset.corpus().num_docs(), 2u);
}

TEST(SchemaHandleRecoveryTest, WrongSchemaIsNotFound) {
  BioTypes bio_types;
  auto bio_schema = MakeBioSchema(&bio_types);
  EXPECT_EQ(DblpTypesFromSchema(*bio_schema).status().code(),
            StatusCode::kNotFound);
  DblpTypes dblp_types;
  auto dblp_schema = MakeDblpSchema(&dblp_types);
  EXPECT_EQ(BioTypesFromSchema(*dblp_schema).status().code(),
            StatusCode::kNotFound);
}

TEST(SchemaHandleRecoveryTest, RecoveredHandlesMatchOriginals) {
  DblpTypes original;
  auto schema = MakeDblpSchema(&original);
  auto recovered = DblpTypesFromSchema(*schema);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->paper, original.paper);
  EXPECT_EQ(recovered->author, original.author);
  EXPECT_EQ(recovered->cites, original.cites);
  EXPECT_EQ(recovered->by, original.by);
}

}  // namespace
}  // namespace orx::datasets
