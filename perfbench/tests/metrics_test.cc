// Unit tests for the benchmark's own arithmetic (perfbench/src/metrics.h).
// Build and run: python3 perfbench/run.py --selftest

#include "metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileTest, NearestRankOnKnownSeries) {
  std::vector<double> v = OneTo(100);
  std::shuffle(v.begin(), v.end(), std::mt19937_64(7));
  EXPECT_EQ(Percentile(v, 50.0), 50.0);
  EXPECT_EQ(Percentile(v, 99.0), 99.0);
  EXPECT_EQ(Percentile(v, 100.0), 100.0);
  EXPECT_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_EQ(Percentile({3.5}, 99.0), 3.5);
}

TEST(PercentileTest, SamplesBeyondP99NeedsAThousand) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(SamplesBeyond(100, 99.0), 1u);
  EXPECT_EQ(SamplesBeyond(100, 50.0), 50u);
  EXPECT_EQ(SamplesBeyond(0, 99.0), 0u);
}

TEST(PercentileTest, SummarizeCarriesTheSampleCount) {
  const LatencySummary s = Summarize(OneTo(1000));
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p99, 990.0);
  EXPECT_EQ(s.beyond_p99, 10u);
  const LatencySummary empty = Summarize({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p99, 0.0);
}

TEST(RatioTest, ZeroBaseReadsZero) {
  EXPECT_EQ(Ratio(3.0, 0.0), 0.0);
  EXPECT_EQ(Ratio(0.0, 0.0), 0.0);
  EXPECT_EQ(Ratio(0.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(Ratio(3.0, 4.0), 0.75);
}

TEST(RatioTest, GeoMeanSkipsNonPositive) {
  EXPECT_DOUBLE_EQ(GeoMean({2.0, 8.0}), 4.0);
  EXPECT_DOUBLE_EQ(GeoMean({2.0, 0.0, 8.0, -1.0}), 4.0);
  EXPECT_EQ(GeoMean({}), 0.0);
  EXPECT_EQ(GeoMean({0.0}), 0.0);
}

SpanRecord Span(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  return SpanRecord{"s", id, parent, 1, start, end, 0};
}

TEST(SelfTimeTest, LeafIsItsDuration) {
  const auto self = SelfTimesNs({Span(1, 0, 10, 25)});
  EXPECT_EQ(self, std::vector<int64_t>({15}));
}

TEST(SelfTimeTest, SubtractsDisjointChildren) {
  const auto self =
      SelfTimesNs({Span(1, 0, 0, 100), Span(2, 1, 10, 30), Span(3, 1, 50, 60)});
  EXPECT_EQ(self, std::vector<int64_t>({70, 20, 10}));
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // Two parallel children covering [10,40) and [20,50): union 40.
  const auto self =
      SelfTimesNs({Span(1, 0, 0, 100), Span(2, 1, 10, 40), Span(3, 1, 20, 50)});
  EXPECT_EQ(self[0], 60);
}

TEST(SelfTimeTest, ChildTimeOutsideTheParentIsIgnored) {
  const auto self = SelfTimesNs({Span(1, 0, 10, 20), Span(2, 1, 5, 15), Span(3, 1, 18, 40)});
  EXPECT_EQ(self[0], 3);  // [15,18) uncovered
}

TEST(SelfTimeTest, GrandchildrenDoNotReduceTheGrandparent) {
  const auto self = SelfTimesNs(
      {Span(1, 0, 0, 100), Span(2, 1, 0, 50), Span(3, 2, 0, 40), Span(4, 0, 0, 5)});
  EXPECT_EQ(self, std::vector<int64_t>({50, 10, 40, 5}));
}

TEST(SelfTimeTest, UnknownParentIsTreatedAsRoot) {
  const auto self = SelfTimesNs({Span(5, 99, 0, 7)});
  EXPECT_EQ(self, std::vector<int64_t>({7}));
}

struct H {
  int32_t tid;
  int32_t id;
};

TEST(DigestTest, OrderIndependentAndCounted) {
  std::vector<H> hits = {{0, 1}, {0, 7}, {3, 2}, {12, 40}};
  const Digest a = DigestOf(hits);
  std::reverse(hits.begin(), hits.end());
  EXPECT_EQ(DigestOf(hits), a);
  EXPECT_EQ(a.count, 4u);
  EXPECT_EQ(DigestOf(std::vector<H>{}), Digest{});
}

TEST(DigestTest, DistinguishesSetsOfEqualSize) {
  const Digest a = DigestOf(std::vector<H>{{0, 1}, {0, 2}});
  const Digest b = DigestOf(std::vector<H>{{0, 1}, {0, 3}});
  const Digest swapped = DigestOf(std::vector<H>{{1, 0}, {2, 0}});
  EXPECT_EQ(a.count, b.count);
  EXPECT_NE(a.hash, b.hash);
  EXPECT_NE(a.hash, swapped.hash);  // tid and id are not interchangeable
}

TEST(DigestTest, MergeIsTheDigestOfTheUnion) {
  const std::vector<H> left = {{0, 1}, {1, 5}};
  const std::vector<H> right = {{2, 3}};
  Digest merged = DigestOf(left);
  merged.Merge(DigestOf(right));
  EXPECT_EQ(merged, DigestOf(std::vector<H>{{2, 3}, {0, 1}, {1, 5}}));
}

}  // namespace
}  // namespace perfbench
