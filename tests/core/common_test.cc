#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"

namespace unicc {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad size");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad size");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("missing"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.UniformInt(7), 7u);
    const auto v = rng.UniformRange(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng rng(9);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 2.0);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(11);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(RngTest, SampleWithoutReplacementDistinctSorted) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    auto s = rng.SampleWithoutReplacement(30, 10);
    ASSERT_EQ(s.size(), 10u);
    std::set<std::uint64_t> distinct(s.begin(), s.end());
    EXPECT_EQ(distinct.size(), 10u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    for (auto v : s) EXPECT_LT(v, 30u);
  }
}

TEST(TypesTest, ProtocolNames) {
  EXPECT_EQ(ProtocolName(Protocol::kTwoPhaseLocking), "2PL");
  EXPECT_EQ(ProtocolName(Protocol::kTimestampOrdering), "T/O");
  EXPECT_EQ(ProtocolName(Protocol::kPrecedenceAgreement), "PA");
}

TEST(TypesTest, CopyIdOrderingAndHash) {
  CopyId a{1, 2}, b{1, 3}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (CopyId{1, 2}));
  std::hash<CopyId> h;
  EXPECT_NE(h(a), h(b));
}

}  // namespace
}  // namespace unicc
