#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "common/byte_io.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/table.h"
#include "common/timer.h"

namespace orx {
namespace {

// ----------------------------------------------------------------------
// Status / StatusOr
// ----------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExistsError("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(DataLossError("x").code(), StatusCode::kDataLoss);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFoundError("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, OkStatusWithoutValueBecomesInternal) {
  StatusOr<int> v = Status::OK();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInternal);
}

// ----------------------------------------------------------------------
// Strings
// ----------------------------------------------------------------------

TEST(StringsTest, StrSplitKeepsEmptyPieces) {
  EXPECT_EQ(StrSplit("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitWhitespaceDropsEmpties) {
  EXPECT_EQ(SplitWhitespace("  a\t b \n c  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ", "), "");
  EXPECT_EQ(StrJoin({"solo"}, ", "), "solo");
}

TEST(StringsTest, AsciiLower) {
  EXPECT_EQ(AsciiLower("OLAP Data-Cube 42"), "olap data-cube 42");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("conference", "conf"));
  EXPECT_FALSE(StartsWith("conf", "conference"));
  EXPECT_TRUE(EndsWith("dblp.xml", ".xml"));
  EXPECT_FALSE(EndsWith(".xml", "dblp.xml"));
}

TEST(StringsTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.12345, 2), "0.12");
  EXPECT_EQ(FormatDouble(1.0, 3), "1.000");
  // Longer than any fixed buffer: every digit printf writes.
  const std::string huge =
      FormatDouble(-std::numeric_limits<double>::max(), 8);
  EXPECT_EQ(huge.size(), 319u);
  EXPECT_EQ(huge.substr(0, 12), "-17976931348");
  EXPECT_EQ(huge.substr(huge.size() - 10), "8.00000000");
}

// ----------------------------------------------------------------------
// Rng
// ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextUint64() == b.NextUint64());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformIntInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(uint64_t{17}), 17u);
    int64_t v = rng.UniformInt(int64_t{-5}, int64_t{5});
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(7);
  double min = 1.0, max = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    min = std::min(min, u);
    max = std::max(max, u);
  }
  EXPECT_LT(min, 0.05);
  EXPECT_GT(max, 0.95);
}

TEST(RngTest, PoissonMeanApproximatesLambda) {
  Rng rng(99);
  const double lambda = 4.8;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(lambda);
  EXPECT_NEAR(sum / n, lambda, 0.1);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, NormalMoments) {
  Rng rng(5);
  const int n = 20000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(42);
  Rng child = a.Fork();
  // The child stream must not replay the parent's.
  EXPECT_NE(child.NextUint64(), a.NextUint64());
}

// ----------------------------------------------------------------------
// TablePrinter / Timer
// ----------------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"Name", "#"});
  t.AddRow({"DBLPtop", "22653"});
  t.AddRow({"x", "1"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| Name    | #     |"), std::string::npos);
  EXPECT_NE(s.find("| DBLPtop | 22653 |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(i);
  ::testing::Test::RecordProperty("sink", sink);
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
  EXPECT_GE(t.ElapsedMillis(), t.ElapsedSeconds());  // ms >= s numerically
  t.Reset();
  EXPECT_LT(t.ElapsedSeconds(), 1.0);
}

// ----------------------------------------------------------------------
// ByteReader
// ----------------------------------------------------------------------

std::string LittleEndianU32(uint32_t v) {
  std::string out;
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
  return out;
}

// A truncated read consumes what is left, so its error names the end of
// the input; a length over its limit names the length's own offset.
TEST(ByteReaderTest, TruncationErrorsNameTheEndOfTheInput) {
  {
    const std::string bytes("\x01\x02", 2);
    ByteReader reader(bytes);
    uint32_t v = 0;
    const Status status = reader.ReadU32(&v, "count");
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    EXPECT_EQ(status.message(), "truncated count at byte 2");
  }
  {
    const std::string bytes = LittleEndianU32(7) + "abc";
    ByteReader reader(bytes);
    uint32_t v = 0;
    uint64_t id = 0;
    ASSERT_TRUE(reader.ReadU32(&v, "count").ok());
    EXPECT_EQ(reader.ReadU64(&id, "id").message(), "truncated id at byte 7");
    EXPECT_EQ(reader.offset(), 7u);
  }
  {
    const std::string bytes = LittleEndianU32(3) + "abc" + "\x01\x02";
    ByteReader reader(bytes);
    std::string name;
    double d = 0.0;
    ASSERT_TRUE(reader.ReadString(&name, 16, "name").ok());
    EXPECT_EQ(reader.ReadDouble(&d, "dbl").message(),
              "truncated dbl at byte 9");
  }
  {
    const std::string bytes = LittleEndianU32(70000) + "abc";
    ByteReader reader(bytes);
    std::string name;
    EXPECT_EQ(reader.ReadString(&name, 1u << 16, "name").message(),
              "implausible name length 70000 at byte 0");
  }
}

TEST(ByteReaderTest, StringLengthPastTheEndFailsWithoutAllocating) {
  // Within the field limit but past the input: the reader checks the
  // bytes left before it sizes the destination, which stays untouched.
  const std::string bytes = LittleEndianU32(0xFFFFFFFFu) + "abc";
  ByteReader reader(bytes);
  std::string name = "keep";
  const size_t capacity = name.capacity();
  const Status status = reader.ReadString(&name, ~uint64_t{0}, "name");
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(status.message(), "truncated name at byte 7");
  EXPECT_EQ(name, "keep");
  EXPECT_EQ(name.capacity(), capacity);
}

}  // namespace
}  // namespace orx
