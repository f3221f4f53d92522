// Self-tests of the benchmark's statistics and span accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "stats.hpp"
#include "tracer.hpp"

namespace perfbench {
namespace {

std::vector<double> shuffled_range(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(12345));
  return v;
}

TEST(Percentile, P99OfThousandLeavesExactlyTenBeyond) {
  const std::vector<double> v = shuffled_range(1000);
  const double p99 = percentile(v, 0.99);
  EXPECT_EQ(std::count_if(v.begin(), v.end(), [&](double x) { return x > p99; }),
            10);
  EXPECT_EQ(p99, 990.0);
}

TEST(Percentile, EdgesAndEmpty) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(percentile(shuffled_range(10), 0.5), 5.0);
  EXPECT_EQ(percentile(shuffled_range(10), 1.0), 10.0);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

// Expected values are Python's statistics.quantiles(data, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  Quartiles q = quartiles(shuffled_range(10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_DOUBLE_EQ(q.iqr_share(), 5.5 / 5.5);

  q = quartiles({1.5, 2.5, 10, 4, 7, 3.25, 8});
  EXPECT_DOUBLE_EQ(q.q1, 2.5);
  EXPECT_DOUBLE_EQ(q.median, 4.0);
  EXPECT_DOUBLE_EQ(q.q3, 8.0);

  q = quartiles({3.0, 1.0});  // extrapolates like Python
  EXPECT_DOUBLE_EQ(q.q1, 0.5);
  EXPECT_DOUBLE_EQ(q.q3, 3.5);

  q = quartiles({5.0, 1.0, 4.0});
  EXPECT_DOUBLE_EQ(q.q1, 1.0);
  EXPECT_DOUBLE_EQ(q.q3, 5.0);
}

Span span(std::int64_t start, std::int64_t end, int parent) {
  Span s;
  s.layer = "x";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, DurationMinusUnionOfChildren) {
  // Parent [0,100); children [10,30) and [20,50) overlap: union is 40.
  // Grandchild [12,20) belongs to the first child, not to the parent.
  const std::vector<Span> spans = {span(0, 100, -1), span(10, 30, 0),
                                   span(20, 50, 0), span(12, 20, 1)};
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 60);
  EXPECT_EQ(self[1], 12);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 8);
}

TEST(SelfTime, NeverNegativeWhenChildrenOverhang) {
  // Children reaching outside the parent are clipped to it.
  const std::vector<Span> spans = {span(10, 20, -1), span(0, 15, 0),
                                   span(12, 40, 0)};
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 0);
  for (const std::int64_t s : self) EXPECT_GE(s, 0);
}

TEST(SelfTime, LayerTotalsSumSelfTimeAndCalls) {
  Span a = span(0, 1000000, -1);
  a.layer = "outer";
  Span b = span(250000, 750000, 0);
  b.layer = "inner";
  Span c = span(2000000, 3000000, -1);
  c.layer = "inner";
  const std::vector<LayerTotals> totals = layer_totals({a, b, c});
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].layer, "outer");
  EXPECT_DOUBLE_EQ(totals[0].self_ms, 0.5);
  EXPECT_EQ(totals[0].calls, 1);
  EXPECT_DOUBLE_EQ(totals[1].self_ms, 1.5);
  EXPECT_EQ(totals[1].calls, 2);
}

TEST(Tracer, ScopesNestAndClose) {
  Tracer tr;
  {
    Tracer::Scope outer(tr, "a", "run", 1);
    Tracer::Scope inner(tr, "b", "call", 1);
  }
  tr.record("c", "gap", 5, 9, 2);
  ASSERT_EQ(tr.spans().size(), 3u);
  EXPECT_EQ(tr.spans()[0].parent, -1);
  EXPECT_EQ(tr.spans()[1].parent, 0);
  EXPECT_EQ(tr.spans()[2].parent, -1);
  EXPECT_LE(tr.spans()[0].start_ns, tr.spans()[1].start_ns);
  EXPECT_GE(tr.spans()[0].end_ns, tr.spans()[1].end_ns);
  EXPECT_EQ(tr.durations_ms("c", "gap").size(), 1u);
}

}  // namespace
}  // namespace perfbench
