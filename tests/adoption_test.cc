#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "graph/generators.h"
#include "oipa/adoption.h"
#include "oipa/assignment_plan.h"
#include "rrset/coverage_state.h"
#include "rrset/mrr_collection.h"
#include "tests/paper_example.h"
#include "topic/prob_models.h"
#include "util/random.h"

namespace oipa {
namespace {

using testing_support::PaperExample;

// -------------------------------------------------------- AssignmentPlan

TEST(AssignmentPlanTest, AddRemoveContains) {
  AssignmentPlan plan(3);
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.Add(0, 5));
  EXPECT_FALSE(plan.Add(0, 5));  // duplicate
  EXPECT_TRUE(plan.Add(2, 5));   // same vertex, different piece
  EXPECT_EQ(plan.size(), 2);
  EXPECT_TRUE(plan.Contains(0, 5));
  EXPECT_FALSE(plan.Contains(1, 5));
  EXPECT_TRUE(plan.Remove(0, 5));
  EXPECT_FALSE(plan.Remove(0, 5));
  EXPECT_EQ(plan.size(), 1);
}

TEST(AssignmentPlanTest, ContainmentDefinition2) {
  AssignmentPlan small(2), big(2);
  small.Add(0, 1);
  big.Add(0, 1);
  big.Add(1, 2);
  EXPECT_TRUE(small.ContainedIn(big));
  EXPECT_FALSE(big.ContainedIn(small));
  EXPECT_TRUE(small.ContainedIn(small));
}

TEST(AssignmentPlanTest, AssignmentsEnumeration) {
  AssignmentPlan plan(2);
  plan.Add(1, 7);
  plan.Add(0, 3);
  const auto pairs = plan.Assignments();
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], std::make_pair(0, VertexId{3}));
  EXPECT_EQ(pairs[1], std::make_pair(1, VertexId{7}));
}

TEST(AssignmentPlanTest, FromSeedSets) {
  const AssignmentPlan plan =
      AssignmentPlan::FromSeedSets({{1, 2}, {}, {3}});
  EXPECT_EQ(plan.num_pieces(), 3);
  EXPECT_EQ(plan.size(), 3);
  EXPECT_TRUE(plan.Contains(2, 3));
}

// --------------------------------------------------- Poisson-binomial DP

TEST(CountDistributionTest, MatchesBruteForceEnumeration) {
  const std::vector<double> probs{0.3, 0.7, 0.5};
  const std::vector<double> f{0.0, 0.1, 0.4, 0.9};
  // Brute force over all 2^3 outcomes.
  double expected = 0.0;
  for (int mask = 0; mask < 8; ++mask) {
    double p = 1.0;
    int count = 0;
    for (int j = 0; j < 3; ++j) {
      if ((mask >> j) & 1) {
        p *= probs[j];
        ++count;
      } else {
        p *= 1.0 - probs[j];
      }
    }
    expected += p * f[count];
  }
  EXPECT_NEAR(ExpectationOverCountDistribution(probs, f), expected, 1e-12);
}

TEST(CountDistributionTest, DegenerateProbabilities) {
  EXPECT_DOUBLE_EQ(
      ExpectationOverCountDistribution({1.0, 1.0}, {0.0, 0.5, 0.8}), 0.8);
  EXPECT_DOUBLE_EQ(
      ExpectationOverCountDistribution({0.0, 0.0}, {0.3, 0.5, 0.8}), 0.3);
}

// ------------------------------------------------------- Paper Example 1

TEST(PaperExampleTest, Example1UtilityIs105) {
  const PaperExample ex;
  AssignmentPlan plan(2);
  plan.Add(0, PaperExample::kA);
  plan.Add(1, PaperExample::kE);
  const double utility =
      ExactAdoptionUtility(ex.pieces, ex.model(), plan);
  // 2 users at one piece + 3 users at two pieces.
  const double expected = 2.0 / (1.0 + std::exp(2.0)) +
                          3.0 / (1.0 + std::exp(1.0));
  EXPECT_NEAR(utility, expected, 1e-12);
  EXPECT_NEAR(utility, 1.05, 0.01);  // the paper's rounded value
}

TEST(PaperExampleTest, Example2NonSubmodularity) {
  // delta_{S̄y}(S̄) > delta_{S̄x}(S̄) even though S̄x ⊆ S̄y: the adoption
  // utility is NOT submodular (Example 2).
  const PaperExample ex;
  const LogisticAdoptionModel m = ex.model();

  AssignmentPlan empty(2);
  AssignmentPlan y(2);
  y.Add(0, PaperExample::kA);
  AssignmentPlan s(2);
  s.Add(1, PaperExample::kE);
  AssignmentPlan y_plus_s = y;
  y_plus_s.Add(1, PaperExample::kE);

  const double sigma_empty = ExactAdoptionUtility(ex.pieces, m, empty);
  const double sigma_y = ExactAdoptionUtility(ex.pieces, m, y);
  const double sigma_s = ExactAdoptionUtility(ex.pieces, m, s);
  const double sigma_ys = ExactAdoptionUtility(ex.pieces, m, y_plus_s);

  EXPECT_NEAR(sigma_empty, 0.0, 1e-12);
  EXPECT_NEAR(sigma_y, 0.48, 0.01);
  const double delta_from_y = sigma_ys - sigma_y;      // ~0.57
  const double delta_from_empty = sigma_s - sigma_empty;  // ~0.48
  EXPECT_GT(delta_from_y, delta_from_empty);
  EXPECT_NEAR(delta_from_y, 0.57, 0.01);
  EXPECT_NEAR(delta_from_empty, 0.48, 0.01);
}

TEST(PaperExampleTest, MonotonicityHolds) {
  const PaperExample ex;
  const LogisticAdoptionModel m = ex.model();
  AssignmentPlan plan(2);
  double prev = ExactAdoptionUtility(ex.pieces, m, plan);
  const std::vector<Assignment> adds = {
      {0, PaperExample::kA}, {1, PaperExample::kE}, {0, PaperExample::kC}};
  for (const auto& [piece, v] : adds) {
    plan.Add(piece, v);
    const double cur = ExactAdoptionUtility(ex.pieces, m, plan);
    EXPECT_GE(cur + 1e-12, prev);
    prev = cur;
  }
}

// --------------------------------------------- Estimator cross-validation

TEST(EstimatorTest, MrrMatchesExactOnPaperExample) {
  const PaperExample ex;
  const MrrCollection mrr = MrrCollection::Generate(ex.pieces, 80'000, 7);
  AssignmentPlan plan(2);
  plan.Add(0, PaperExample::kA);
  plan.Add(1, PaperExample::kE);
  const double exact = ExactAdoptionUtility(ex.pieces, ex.model(), plan);
  const double est = EstimateAdoptionUtility(mrr, ex.model(), plan);
  // Deterministic graph: the only randomness is root choice.
  EXPECT_NEAR(est, exact, 0.03);
}

TEST(EstimatorTest, SimulationMatchesExactOnPaperExample) {
  const PaperExample ex;
  AssignmentPlan plan(2);
  plan.Add(0, PaperExample::kA);
  plan.Add(1, PaperExample::kE);
  const double exact = ExactAdoptionUtility(ex.pieces, ex.model(), plan);
  const double sim =
      SimulateAdoptionUtility(ex.pieces, ex.model(), plan, 100, 9);
  EXPECT_NEAR(sim, exact, 1e-9);  // deterministic cascades
}

class EstimatorUnbiasedness
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(EstimatorUnbiasedness, MrrAgreesWithExactOnRandomInstances) {
  const auto [n, edge_p, ell] = GetParam();
  const Graph g = GenerateErdosRenyi(n, edge_p, 31 + n + ell);
  if (g.num_edges() > 22) GTEST_SKIP() << "exact enumeration too large";
  const EdgeTopicProbs probs =
      AssignWeightedCascadeTopics(g, 4, 2.0, 37);
  Rng rng(41 + ell);
  const Campaign campaign = Campaign::SampleUniformPieces(ell, 4, &rng);
  const auto pieces = BuildPieceGraphs(g, probs, campaign);
  const LogisticAdoptionModel model(2.0, 1.0);

  AssignmentPlan plan(ell);
  plan.Add(0, 0);
  if (ell > 1) plan.Add(1, std::min<VertexId>(3, n - 1));

  const double exact = ExactAdoptionUtility(pieces, model, plan);
  const MrrCollection mrr = MrrCollection::Generate(pieces, 60'000, 43);
  const double est = EstimateAdoptionUtility(mrr, model, plan);
  EXPECT_NEAR(est, exact, 0.08 * std::max(0.5, exact));

  const double sim = SimulateAdoptionUtility(pieces, model, plan,
                                             15'000, 47);
  EXPECT_NEAR(sim, exact, 0.08 * std::max(0.5, exact));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EstimatorUnbiasedness,
    ::testing::Values(std::make_tuple(8, 0.25, 1),
                      std::make_tuple(8, 0.25, 2),
                      std::make_tuple(10, 0.15, 3),
                      std::make_tuple(12, 0.1, 2),
                      std::make_tuple(6, 0.4, 4)));

TEST(EstimatorTest, MaskEstimateIsBitIdenticalToCoverageState) {
  // EstimateAdoptionUtility keeps only covered-piece masks; replaying the
  // same plan through CoverageState must give the same bits. Vertices are
  // drawn from a small range, so a vertex is often seeded on several
  // pieces and seeds of one piece often cover the same samples.
  const Graph g = GenerateHolmeKim(300, 3, 0.4, 61);
  const EdgeTopicProbs probs = AssignWeightedCascadeTopics(g, 5, 2.0, 67);
  Rng rng(71);
  const int ell = 4;
  const Campaign campaign = Campaign::SampleUniformPieces(ell, 5, &rng);
  const MrrCollection mrr =
      MrrCollection::Generate(BuildPieceGraphs(g, probs, campaign), 5000, 73);
  const LogisticAdoptionModel model(2.0, 1.0);
  for (int round = 0; round < 25; ++round) {
    AssignmentPlan plan(ell);
    const int size = 1 + static_cast<int>(rng.NextBounded(30));
    for (int s = 0; s < size; ++s) {
      plan.Add(static_cast<int>(rng.NextBounded(ell)),
               static_cast<VertexId>(rng.NextBounded(20)));
    }
    CoverageState state(&mrr, model.AdoptionTable(ell));
    for (const auto& [piece, v] : plan.Assignments()) state.AddSeed(v, piece);
    const double masked = EstimateAdoptionUtility(mrr, model, plan);
    const double reference = state.Utility();
    EXPECT_EQ(std::memcmp(&masked, &reference, sizeof(double)), 0)
        << "round " << round << ": " << masked << " vs " << reference;
  }
}

TEST(EstimatorTest, EmptyPlanIsZero) {
  const PaperExample ex;
  const MrrCollection mrr = MrrCollection::Generate(ex.pieces, 1000, 7);
  const AssignmentPlan plan(2);
  EXPECT_EQ(EstimateAdoptionUtility(mrr, ex.model(), plan), 0.0);
  EXPECT_EQ(ExactAdoptionUtility(ex.pieces, ex.model(), plan), 0.0);
}

}  // namespace
}  // namespace oipa
