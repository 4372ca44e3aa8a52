#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.h"
#include "oipa/adoption.h"
#include "oipa/correlated.h"
#include "tests/paper_example.h"
#include "topic/prob_models.h"
#include "util/random.h"

namespace oipa {
namespace {

using testing_support::PaperExample;

/// Shared instance: overlapping pieces so correlation has something to
/// couple (both pieces use the same topics with different mixtures).
struct CorrelatedInstance {
  CorrelatedInstance()
      : graph(GenerateErdosRenyi(60, 0.08, 7)),
        probs(AssignWeightedCascadeTopics(graph, 4, 3.0, 11)),
        model(2.0, 1.0) {
    TopicVector t1(4), t2(4);
    t1[0] = 0.5;
    t1[1] = 0.5;
    t2[0] = 0.5;
    t2[2] = 0.5;
    campaign.AddPiece({"t1", t1});
    campaign.AddPiece({"t2", t2});
    pieces = BuildPieceGraphs(graph, probs, campaign);
    plan = AssignmentPlan(2);
    plan.Add(0, 0);
    plan.Add(0, 5);
    plan.Add(1, 0);
    plan.Add(1, 9);
  }

  Graph graph;
  EdgeTopicProbs probs;
  LogisticAdoptionModel model;
  Campaign campaign;
  std::vector<InfluenceGraph> pieces;
  AssignmentPlan plan{2};
};

TEST(CorrelatedCascadeTest, RhoZeroMatchesIndependentSimulator) {
  const CorrelatedInstance inst;
  const double independent = SimulateAdoptionUtility(
      inst.pieces, inst.model, inst.plan, 30'000, 13);
  const double rho0 = SimulateCorrelatedAdoptionUtility(
      inst.pieces, inst.model, inst.plan, 0.0, 30'000, 17);
  EXPECT_NEAR(rho0, independent, 0.05 * independent);
}

TEST(CorrelatedCascadeTest, CountsBoundedByPieces) {
  const CorrelatedInstance inst;
  Rng rng(19);
  for (int t = 0; t < 50; ++t) {
    const auto counts =
        SimulateCorrelatedCascade(inst.pieces, inst.plan, 0.7, &rng);
    for (int c : counts) {
      EXPECT_GE(c, 0);
      EXPECT_LE(c, 2);
    }
  }
}

TEST(CorrelatedCascadeTest, SeedsAlwaysReceiveTheirPieces) {
  const CorrelatedInstance inst;
  Rng rng(23);
  const auto counts =
      SimulateCorrelatedCascade(inst.pieces, inst.plan, 1.0, &rng);
  // Vertex 0 seeds both pieces.
  EXPECT_EQ(counts[0], 2);
  EXPECT_GE(counts[5], 1);
  EXPECT_GE(counts[9], 1);
}

TEST(CorrelatedCascadeTest, PositiveCorrelationShiftsUtility) {
  // The estimator built on the independence assumption is biased once
  // rho > 0; this quantifies the Section-VII future-work concern. The
  // effect is sharpest for two IDENTICAL pieces from identical seeds:
  // under rho = 1 both cascades share one live-edge world, so every
  // reached user receives BOTH pieces (count 2); independently, reached
  // users often receive only one. With a convex adoption profile
  // (f(2) > 2 f(1)) the correlated utility must be strictly larger.
  const Graph graph = GenerateErdosRenyi(60, 0.08, 7);
  const EdgeTopicProbs probs =
      AssignWeightedCascadeTopics(graph, 4, 3.0, 11);
  TopicVector shared(4);
  shared[0] = 0.5;
  shared[1] = 0.5;
  Campaign campaign;
  campaign.AddPiece({"t1", shared});
  campaign.AddPiece({"t2", shared});
  const auto pieces = BuildPieceGraphs(graph, probs, campaign);
  AssignmentPlan plan(2);
  for (int j = 0; j < 2; ++j) {
    plan.Add(j, 0);
    plan.Add(j, 5);
  }
  const LogisticAdoptionModel convex(4.0, 1.0);  // f(2) ~ 6.4 * f(1)^2-ish
  const double rho0 = SimulateCorrelatedAdoptionUtility(
      pieces, convex, plan, 0.0, 60'000, 29);
  const double rho1 = SimulateCorrelatedAdoptionUtility(
      pieces, convex, plan, 1.0, 60'000, 31);
  EXPECT_GT(rho1, rho0 * 1.05);
}

TEST(CorrelatedCascadeTest, DeterministicInstanceUnaffectedByRho) {
  // On the paper example all probabilities are 1: correlation cannot
  // change anything.
  const PaperExample ex;
  AssignmentPlan plan(2);
  plan.Add(0, PaperExample::kA);
  plan.Add(1, PaperExample::kE);
  const double exact = ExactAdoptionUtility(ex.pieces, ex.model(), plan);
  for (double rho : {0.0, 0.5, 1.0}) {
    const double sim = SimulateCorrelatedAdoptionUtility(
        ex.pieces, ex.model(), plan, rho, 200, 37);
    EXPECT_NEAR(sim, exact, 1e-9) << "rho=" << rho;
  }
}

}  // namespace
}  // namespace oipa
