#include "perfbench/bench_logic.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace perfbench {
namespace {

TEST(TailRankTest, KeepsTenSamplesBeyond) {
  EXPECT_EQ(TailRank(0), -1);
  EXPECT_EQ(TailRank(10), -1);
  EXPECT_EQ(TailRank(11), 0);
  EXPECT_EQ(TailRank(100), 89);
  EXPECT_EQ(TailRank(1000), 989);
  for (int64_t n = 11; n < 500; ++n) {
    EXPECT_EQ(n - 1 - TailRank(n), kTailSamplesBeyond) << n;
  }
}

TEST(TailRankTest, TailOfReportsValuePercentileAndCount) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  const Tail tail = TailOf(values);
  EXPECT_EQ(tail.value, 90.0);
  EXPECT_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.samples, 100);
  EXPECT_EQ(TailOf({1, 2, 3}).samples, 3);
  EXPECT_EQ(TailOf({1, 2, 3}).percentile, 0.0);
}

TEST(MedianTest, OddAndEven) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(MetricNameTest, OnlyAllowedCharacters) {
  EXPECT_TRUE(ValidMetricName("plan_ms_p50"));
  EXPECT_TRUE(ValidMetricName("oipa.solve_ms.bab-p"));
  EXPECT_TRUE(ValidMetricName("9lives"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("_leading"));
  EXPECT_FALSE(ValidMetricName("plan ms"));
  EXPECT_FALSE(ValidMetricName("rate/s"));
  EXPECT_FALSE(ValidMetricName("p99%"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(OpListTest, ColdPlanSameSeedSameListOtherSeedOtherList) {
  EXPECT_EQ(MakeColdPlanOps(1, 60, 9), MakeColdPlanOps(1, 60, 9));
  EXPECT_NE(MakeColdPlanOps(1, 60, 9), MakeColdPlanOps(2, 60, 9));
}

TEST(OpListTest, ColdPlanBlocksUseEveryTopicOnce) {
  const std::vector<ColdPlanOp> ops = MakeColdPlanOps(5, 30, 9);
  ASSERT_EQ(ops.size(), 30u);
  for (size_t block = 0; block + 3 <= ops.size(); block += 3) {
    std::vector<int> seen(9, 0);
    for (size_t i = block; i < block + 3; ++i) {
      for (int t : ops[i].topics) ++seen[t];
    }
    for (int count : seen) EXPECT_EQ(count, 1);
  }
}

TEST(OpListTest, SearchSameSeedSameListOtherSeedOtherList) {
  EXPECT_EQ(MakeSearchOps(1, 270), MakeSearchOps(1, 270));
  EXPECT_NE(MakeSearchOps(1, 270), MakeSearchOps(2, 270));
}

TEST(OpListTest, SearchCompositionDoesNotDependOnSeed) {
  int per_block = 0;
  for (const SearchClass& c : SearchClasses()) per_block += c.per_block;
  const auto counts = [&](uint64_t seed) {
    std::map<std::string, int> out;
    for (const SearchOp& op : MakeSearchOps(seed, 4 * per_block)) {
      ++out[op.method + "/" + std::to_string(op.k)];
    }
    return out;
  };
  EXPECT_EQ(counts(1), counts(77));
  for (const SearchClass& c : SearchClasses()) {
    EXPECT_EQ((counts(3)[std::string(c.method) + "/" + std::to_string(c.k)]),
              4 * c.per_block);
  }
}

TEST(OpListTest, ServeSameSeedSameListOtherSeedOtherList) {
  ServeMix mix;
  mix.raises = 5;
  mix.misses = 3;
  EXPECT_EQ(MakeServeOps(1, 200, mix, 100.0), MakeServeOps(1, 200, mix, 100.0));
  EXPECT_NE(MakeServeOps(1, 200, mix, 100.0), MakeServeOps(2, 200, mix, 100.0));
}

TEST(OpListTest, ServeKeepsFixedCountsAndArrivalOrder) {
  ServeMix mix;
  mix.raises = 7;
  mix.misses = 4;
  const std::vector<ServeOp> ops = MakeServeOps(9, 400, mix, 50.0);
  ASSERT_EQ(ops.size(), 400u);
  int raises = 0;
  int misses = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(ops[i].at_s, ops[i - 1].at_s);
    }
    if (ops[i].kind == ServeKind::kRaise) {
      EXPECT_EQ(ops[i].context, raises++);
    }
    if (ops[i].kind == ServeKind::kMiss) {
      EXPECT_EQ(ops[i].context, misses++);
    }
  }
  EXPECT_EQ(raises, 7);
  EXPECT_EQ(misses, 4);
  // Misses are spread evenly: a quarter of the list apart.
  std::vector<size_t> at;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == ServeKind::kMiss) at.push_back(i);
  }
  for (size_t j = 1; j < at.size(); ++j) EXPECT_NEAR(at[j] - at[j - 1], 100, 1);
  // 400 arrivals at 50/s end just before 8 s, whatever the seed.
  EXPECT_LT(ops.back().at_s, 8.0);
  EXPECT_NEAR(ops.back().at_s, 8.0, 0.2);
  EXPECT_LT(MakeServeOps(10, 400, mix, 50.0).back().at_s, 8.0);
}

Rung MakeRung(double rate, double tail_ms) {
  Rung rung;
  rung.rate = rate;
  rung.tail.value = tail_ms;
  rung.tail.samples = 100;
  rung.sent = 100;
  return rung;
}

TEST(LadderTest, InterpolatesBetweenPassingAndFailingRung) {
  const std::vector<Rung> rungs = {MakeRung(100, 10), MakeRung(200, 20),
                                   MakeRung(300, 60)};
  // The tail crosses 40 ms halfway from 20 ms at 200/s to 60 ms at 300/s.
  EXPECT_DOUBLE_EQ(MaxPassingRate(rungs, 40, 2), 250.0);
}

TEST(LadderTest, GrowingBacklogCountsAsTwiceTheLimit) {
  std::vector<Rung> rungs = {MakeRung(100, 10), MakeRung(200, 20)};
  rungs[1].backlog_growth = 50;
  EXPECT_FALSE(RungPasses(rungs[1], 40, 2));
  // The growing rung reads 80 ms: the fit crosses 40 ms 3/7 of the way.
  EXPECT_DOUBLE_EQ(MaxPassingRate(rungs, 40, 2), 100.0 + 100.0 * 3 / 7);
  EXPECT_DOUBLE_EQ(MaxPassingRate({rungs[1]}, 40, 2), 0.0);
  rungs = {MakeRung(100, 10), MakeRung(200, 20)};
  EXPECT_DOUBLE_EQ(MaxPassingRate(rungs, 40, 2), 200.0);
}

TEST(LadderTest, RefusalsEnterThroughTheTailAndAreCapped) {
  // Refused requests read as endless latencies; beyond the tail rank
  // they do not fail the rung, at the tail rank they do, and the fit
  // caps them at twice the limit.
  std::vector<Rung> rungs = {MakeRung(100, 10), MakeRung(200, 1e9)};
  rungs[1].failed = 20;
  EXPECT_FALSE(RungPasses(rungs[1], 40, 2));
  EXPECT_DOUBLE_EQ(MaxPassingRate(rungs, 40, 2), 100.0 + 100.0 * 3 / 7);
  Rung few = MakeRung(200, 20);
  few.failed = 3;
  EXPECT_TRUE(RungPasses(few, 40, 2));
}

TEST(LadderTest, OneNoisyRungDoesNotEndTheClimb) {
  // 45 ms at 110/s is noise: pooled with its neighbours it fits 26.67 ms,
  // and the curve crosses 40 ms a quarter of the way to 140/s.
  const std::vector<Rung> rungs = {MakeRung(100, 10), MakeRung(110, 45),
                                   MakeRung(120, 15), MakeRung(130, 20),
                                   MakeRung(140, 80)};
  EXPECT_NEAR(MaxPassingRate(rungs, 40, 2), 132.5, 1e-9);
}

TEST(LadderTest, BacklogGrowth) {
  // Answered as soon as due: no backlog.
  std::vector<Arrival> steady;
  for (int i = 0; i < 20; ++i) steady.push_back({i * 1.0, i * 1.0 + 0.5});
  EXPECT_EQ(BacklogGrowth(steady), 0);
  // Service slower than arrivals: the queue grows through the rung.
  std::vector<Arrival> growing;
  for (int i = 0; i < 20; ++i) growing.push_back({i * 1.0, i * 2.0 + 1.0});
  EXPECT_GT(BacklogGrowth(growing), 2);
}

TEST(SelfTimeTest, SubtractsDirectChildren) {
  const std::vector<Span> spans = {
      {"op", 0, 100, -1, 0},
      {"rrset.generate", 10, 50, 0, 0},
      {"oipa.solve.bab-p", 50, 90, 0, 0},
      {"api.holdout_eval", 60, 70, 2, 0},
  };
  const std::map<std::string, int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self.at("op"), 20);
  EXPECT_EQ(self.at("rrset.generate"), 40);
  EXPECT_EQ(self.at("oipa.solve.bab-p"), 30);
  EXPECT_EQ(self.at("api.holdout_eval"), 10);
  int64_t total = 0;
  for (const auto& [name, ns] : self) total += ns;
  EXPECT_EQ(total, 100);
}

}  // namespace
}  // namespace perfbench
