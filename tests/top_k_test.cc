#include "core/top_k.h"

#include <gtest/gtest.h>

namespace orx::core {
namespace {

TEST(TopKTest, ReturnsDescendingScores) {
  std::vector<double> scores{0.1, 0.5, 0.3, 0.9, 0.2};
  auto top = TopK(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].node, 3u);
  EXPECT_EQ(top[1].node, 1u);
  EXPECT_EQ(top[2].node, 2u);
}

TEST(TopKTest, KLargerThanInput) {
  std::vector<double> scores{0.2, 0.1};
  // 0xFFFFFFFF is the largest k the wire carries; it must cost what the
  // input costs, not a k-sized allocation.
  for (const size_t k : {size_t{10}, size_t{0xFFFFFFFF}}) {
    auto top = TopK(scores, k);
    ASSERT_EQ(top.size(), 2u) << k;
    EXPECT_EQ(top[0].node, 0u) << k;
  }
}

TEST(TopKTest, KZeroAndEmptyInput) {
  EXPECT_TRUE(TopK({0.5}, 0).empty());
  EXPECT_TRUE(TopK({}, 5).empty());
}

TEST(TopKTest, TiesBreakByAscendingNodeId) {
  std::vector<double> scores{0.5, 0.5, 0.5, 0.5};
  auto top = TopK(scores, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, 0u);
  EXPECT_EQ(top[1].node, 1u);
}

TEST(TopKTest, LargeInputCoversEveryIndex) {
  // Regression for the heap loop's index type: it iterated with a
  // graph::NodeId (uint32_t) compared against scores.size() (size_t),
  // which warned under -Wsign-compare/-Wconversion contexts and would
  // wrap on inputs exceeding the NodeId range. The loop now runs over
  // size_t and casts per index; the best element must be found wherever
  // it sits, including the very last slot of a large vector.
  constexpr size_t kN = 100'000;
  std::vector<double> scores(kN, 0.1);
  scores[kN - 1] = 0.9;
  scores[kN / 2] = 0.5;
  auto top = TopK(scores, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, static_cast<graph::NodeId>(kN - 1));
  EXPECT_EQ(top[1].node, static_cast<graph::NodeId>(kN / 2));
}

class TopKTypedTest : public ::testing::Test {
 protected:
  TopKTypedTest() {
    paper_ = *schema_.AddNodeType("Paper");
    author_ = *schema_.AddNodeType("Author");
    data_ = std::make_unique<graph::DataGraph>(schema_);
    // Even ids papers, odd ids authors.
    for (int i = 0; i < 6; ++i) {
      *data_->AddNode(i % 2 == 0 ? paper_ : author_, {});
    }
  }

  graph::SchemaGraph schema_;
  graph::TypeId paper_, author_;
  std::unique_ptr<graph::DataGraph> data_;
};

TEST_F(TopKTypedTest, TypeFilter) {
  std::vector<double> scores{0.1, 0.9, 0.2, 0.8, 0.3, 0.7};
  auto top = TopKOfType(scores, 2, *data_, paper_);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, 4u);  // best paper
  EXPECT_EQ(top[1].node, 2u);
  // Nullopt type = unfiltered.
  auto all = TopKOfType(scores, 1, *data_, std::nullopt);
  EXPECT_EQ(all[0].node, 1u);
}

TEST_F(TopKTypedTest, ExclusionFilter) {
  std::vector<double> scores{0.1, 0.9, 0.2, 0.8, 0.3, 0.7};
  std::vector<bool> excluded(6, false);
  excluded[4] = true;  // remove the best paper
  auto top = TopKOfTypeExcluding(scores, 2, *data_, paper_, excluded);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].node, 2u);
  EXPECT_EQ(top[1].node, 0u);
}

TEST_F(TopKTypedTest, ExclusionVectorShorterThanScoresIsSafe) {
  std::vector<double> scores{0.1, 0.9, 0.2, 0.8, 0.3, 0.7};
  std::vector<bool> excluded(2, true);  // only covers nodes 0, 1
  auto top = TopKOfTypeExcluding(scores, 10, *data_, std::nullopt, excluded);
  EXPECT_EQ(top.size(), 4u);
}

}  // namespace
}  // namespace orx::core
