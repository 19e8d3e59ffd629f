// Tests for the benchmark's own helpers: percentiles, span self time, the
// Poisson schedule, and the pass-through decorators.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "common/random.h"
#include "core/dualize_advance.h"
#include "core/levelwise.h"
#include "harness.h"
#include "hypergraph/transversal_fk.h"
#include "mining/frequency_oracle.h"
#include "mining/generators.h"

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(Percentile(Iota(19), 50).has_value());  // 9 beyond rank 10
  ASSERT_TRUE(Percentile(Iota(20), 50).has_value());   // 10 beyond rank 10
  EXPECT_EQ(*Percentile(Iota(20), 50), 10.0);
  EXPECT_FALSE(Percentile(Iota(999), 99).has_value());
  ASSERT_TRUE(Percentile(Iota(1000), 99).has_value());
  EXPECT_EQ(*Percentile(Iota(1000), 99), 990.0);
  EXPECT_FALSE(Percentile({}, 50).has_value());
}

TEST(Percentile, TailTakesTheHighestSupportedPercentile) {
  EXPECT_EQ(TailPercentile(Iota(1000)), 990.0);  // p99
  EXPECT_EQ(TailPercentile(Iota(100)), 90.0);    // p90
  EXPECT_EQ(TailPercentile(Iota(30)), 15.0);     // p50
  EXPECT_EQ(TailPercentile(Iota(5)), 3.0);       // plain median
}

TEST(Percentile, FailedSamplesCountAsInfinity) {
  std::vector<double> v = Iota(1000);
  for (size_t i = 0; i < 11; ++i) {
    v[i] = std::numeric_limits<double>::infinity();
  }
  EXPECT_EQ(TailPercentile(v), std::numeric_limits<double>::infinity());
}

TEST(TrimmedMean, DropsATenthOnEachSide) {
  EXPECT_EQ(TrimmedMean(Iota(9)), 5.0);  // nothing to drop below 10
  std::vector<double> v = Iota(20);
  v[0] = -1000;  // dropped with 2
  v[19] = std::numeric_limits<double>::infinity();  // dropped with 19
  EXPECT_EQ(TrimmedMean(v), 10.5);  // mean of 3..18
  // Half fast (1.0) and half slow (1.3) samples: the median sits between
  // the modes, and one more slow sample moves the mean only 1/16 of the gap.
  std::vector<double> mix(10, 1.0);
  mix.resize(20, 1.3);
  EXPECT_NEAR(TrimmedMean(mix), 1.15, 1e-12);
  mix[9] = 1.3;
  EXPECT_NEAR(TrimmedMean(mix), 1.15 + 0.3 / 16, 1e-12);
}

TEST(Spans, SelfTimeCountsOverlappingChildrenOnce) {
  std::vector<Span> spans = {
      {"parent", "serve", 0, 10, -1, 0},
      {"a", "serve", 1, 4, 0, 1},
      {"b", "serve", 3, 6, 0, 2},    // overlaps a
      {"c", "serve", 8, 12, 0, 3},   // runs past the parent's end
      {"grandchild", "mining", 1, 2, 1, 1},
  };
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 0), 10.0 - (5.0 + 2.0));
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 1), 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(SelfSeconds(spans, 4), 1.0);
}

TEST(Spans, TracerNestsAndDisabledRecordsNothing) {
  Tracer tracer(true);
  {
    Scope outer(&tracer, "outer", "core");
    Scope inner(&tracer, "inner", "mining");
  }
  const std::vector<Span> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_GE(spans[0].end, spans[1].end);
  EXPECT_GE(tracer.LayerSelfSeconds("core"), 0.0);

  Tracer off(false);
  { Scope s(&off, "x", "core"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(Schedule, IdenticalForOneSeed) {
  const auto a = PoissonSchedule(7, 150, 20, 60);
  const auto b = PoissonSchedule(7, 150, 20, 60);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].send_at, b[i].send_at);
    EXPECT_EQ(a[i].cls, b[i].cls);
    EXPECT_EQ(a[i].session, b[i].session);
    EXPECT_EQ(a[i].mine_percent, b[i].mine_percent);
    EXPECT_EQ(a[i].item_a, b[i].item_a);
    EXPECT_EQ(a[i].item_b, b[i].item_b);
    EXPECT_EQ(a[i].row_offset, b[i].row_offset);
  }
  const auto c = PoissonSchedule(8, 150, 20, 60);
  ASSERT_FALSE(c.empty());
  EXPECT_NE(a.front().send_at, c.front().send_at);
}

TEST(Schedule, FollowsTheRateAndMix) {
  const auto s = PoissonSchedule(1995, 150, 100, 60);
  // 15,000 expected arrivals; a Poisson count is within 4 sd (~490).
  EXPECT_NEAR(static_cast<double>(s.size()), 15000.0, 490.0);
  size_t push = 0, mine = 0, rows = 0;
  double last = 0;
  for (const ScheduledRequest& r : s) {
    EXPECT_GT(r.send_at, last);
    last = r.send_at;
    EXPECT_LT(r.session, 2u);
    if (r.cls == RequestClass::kPush) {
      EXPECT_EQ(r.row_offset, rows);  // pushes take consecutive pool rows
      rows += 50;
      ++push;
    } else if (r.cls == RequestClass::kMine) {
      EXPECT_TRUE(r.mine_percent == 3 || r.mine_percent == 4);
      ++mine;
    } else {
      EXPECT_LT(r.item_a, r.item_b);
      EXPECT_LT(r.item_b, 60u);
    }
  }
  const double n = static_cast<double>(s.size());
  EXPECT_NEAR(static_cast<double>(push) / n, 0.05, 0.01);
  EXPECT_NEAR(static_cast<double>(mine) / n, 0.25, 0.02);
}

hgm::TransactionDatabase SmallQuest() {
  hgm::QuestParams params;
  params.num_transactions = 2000;
  params.num_items = 20;
  params.avg_transaction_size = 6;
  hgm::Rng rng(3);
  return hgm::GenerateQuest(params, &rng);
}

TEST(Decorators, OraclePassesLevelwiseResultsThrough) {
  hgm::TransactionDatabase db = SmallQuest();
  hgm::ThreadPool pool(1);
  hgm::FrequencyOracle plain(&db, 60, true, &pool);
  const hgm::LevelwiseResult want = hgm::RunLevelwise(&plain);

  hgm::FrequencyOracle inner(&db, 60, true, &pool);
  Tracer tracer(true);
  TimingOracle timed(&inner, &tracer);
  const hgm::LevelwiseResult got = hgm::RunLevelwise(&timed);
  EXPECT_EQ(got.theory, want.theory);
  EXPECT_EQ(got.positive_border, want.positive_border);
  EXPECT_EQ(got.negative_border, want.negative_border);
  EXPECT_EQ(got.queries, want.queries);
  EXPECT_EQ(timed.queries(), want.queries);
  EXPECT_FALSE(tracer.spans().empty());
}

TEST(Decorators, EnumeratorAndOraclePassDualizeResultsThrough) {
  hgm::Rng rng(5);
  const std::vector<hgm::Bitset> patterns =
      hgm::RandomPatterns(16, 6, 5, &rng);
  hgm::TransactionDatabase db =
      hgm::PlantedDatabase(16, patterns, 3, 0, 0, &rng);
  hgm::ThreadPool pool(1);
  hgm::FrequencyOracle plain(&db, 3, true, &pool);
  const hgm::DualizeAdvanceResult want = hgm::RunDualizeAdvance(&plain);

  hgm::FrequencyOracle inner(&db, 3, true, &pool);
  Tracer tracer(true);
  TimingOracle timed(&inner, &tracer);
  EnumeratorStats stats;
  hgm::DualizeAdvanceOptions options;
  options.make_enumerator =
      [&]() -> std::unique_ptr<hgm::TransversalEnumerator> {
    return std::make_unique<TimingEnumerator>(
        std::make_unique<hgm::FkTransversalEnumerator>(), &stats, &tracer);
  };
  const hgm::DualizeAdvanceResult got =
      hgm::RunDualizeAdvance(&timed, options);
  EXPECT_EQ(got.positive_border, want.positive_border);
  EXPECT_EQ(got.negative_border, want.negative_border);
  EXPECT_EQ(got.queries, want.queries);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.transversals_enumerated, want.transversals_enumerated);
  EXPECT_EQ(timed.queries(), want.queries);
  EXPECT_GT(stats.next_calls, 0u);
}

TEST(Resample, SameSeedSameRowsAndLabels) {
  const hgm::TransactionDatabase pop = SmallQuest();
  const hgm::TransactionDatabase a = Resample(pop, 500, 11);
  const hgm::TransactionDatabase b = Resample(pop, 500, 11);
  const hgm::TransactionDatabase c = Resample(pop, 500, 12);
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_NE(a.rows(), c.rows());
  const std::vector<size_t> perm = ItemPermutation(20, 11);
  std::vector<size_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

}  // namespace
}  // namespace perfbench
