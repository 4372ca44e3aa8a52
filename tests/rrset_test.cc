#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "diffusion/cascade.h"
#include "rrset/coverage_kernels.h"
#include "graph/generators.h"
#include "graph/graph_builder.h"
#include "rrset/coverage_state.h"
#include "rrset/mrr_collection.h"
#include "rrset/rr_sampler.h"
#include "topic/campaign.h"
#include "topic/influence_graph.h"
#include "topic/prob_models.h"
#include "util/random.h"
#include "util/threading.h"

namespace oipa {
namespace {

// ------------------------------------------------------------- Sampler

TEST(RrSamplerTest, DeterministicGraphYieldsAncestors) {
  const Graph g = MakePath(5);
  const InfluenceGraph ig = InfluenceGraph::Uniform(g, 1.0f);
  RrSampler sampler(g.num_vertices());
  Rng rng(1);
  std::vector<VertexId> set;
  sampler.Sample(ig, 3, &rng, &set);
  std::sort(set.begin(), set.end());
  EXPECT_EQ(set, (std::vector<VertexId>{0, 1, 2, 3}));
}

TEST(RrSamplerTest, ZeroProbabilityYieldsRootOnly) {
  const Graph g = MakeCompleteDigraph(5);
  const InfluenceGraph ig = InfluenceGraph::Uniform(g, 0.0f);
  RrSampler sampler(g.num_vertices());
  Rng rng(1);
  std::vector<VertexId> set;
  sampler.Sample(ig, 2, &rng, &set);
  EXPECT_EQ(set, (std::vector<VertexId>{2}));
}

TEST(RrSamplerTest, ReusableAcrossCalls) {
  const Graph g = MakeCycle(6);
  const InfluenceGraph ig = InfluenceGraph::Uniform(g, 1.0f);
  RrSampler sampler(g.num_vertices());
  Rng rng(1);
  std::vector<VertexId> set;
  for (int i = 0; i < 10; ++i) {
    sampler.Sample(ig, i % 6, &rng, &set);
    EXPECT_EQ(set.size(), 6u);  // cycle: everything reaches everything
  }
}

TEST(PerSampleSeedTest, DistinctAcrossSamplesAndPieces) {
  std::set<uint64_t> seen;
  for (int64_t s = 0; s < 100; ++s) {
    for (int j = -1; j < 4; ++j) {
      seen.insert(PerSampleSeed(42, s, j));
    }
  }
  EXPECT_EQ(seen.size(), 500u);
}

// ---------------------------------------------------------- Collection

/// n times the fraction of RR sets in a one-piece collection that
/// `seeds` cover: the RIS spread estimator.
double OnePieceSpreadEstimate(const MrrCollection& rr,
                              const std::vector<VertexId>& seeds) {
  std::vector<uint8_t> covered(rr.theta(), 0);
  for (const VertexId s : seeds) {
    for (const int64_t i : rr.SamplesContaining(0, s)) covered[i] = 1;
  }
  int64_t count = 0;
  for (const uint8_t c : covered) count += c;
  return static_cast<double>(count) * rr.UtilityScale();
}

TEST(MrrCollectionTest, OnePieceSpreadEstimateMatchesExactOnSmallGraphs) {
  const Graph g = GenerateErdosRenyi(10, 0.2, 7);
  ASSERT_LE(g.num_edges(), 24);
  const InfluenceGraph ig = InfluenceGraph::Uniform(g, 0.35f);
  const MrrCollection rr = MrrCollection::Generate({&ig, 1}, 150'000, 3);
  for (const std::vector<VertexId>& seeds :
       {std::vector<VertexId>{0}, {1, 2}, {0, 5, 9}}) {
    const double exact = ExactSpread(ig, seeds);
    EXPECT_NEAR(OnePieceSpreadEstimate(rr, seeds), exact,
                0.03 * std::max(1.0, exact));
  }
}

TEST(MrrCollectionTest, OnePieceIndexMatchesSetsAcrossSegments) {
  const Graph g = GenerateErdosRenyi(40, 0.08, 13);
  const InfluenceGraph ig = InfluenceGraph::Uniform(g, 0.5f);
  MrrCollection rr = MrrCollection::Generate({&ig, 1}, 100, 7);
  rr.Extend({&ig, 1}, 300);
  ASSERT_EQ(rr.num_index_segments(), 2);
  std::vector<std::vector<int64_t>> want(g.num_vertices());
  for (int64_t i = 0; i < rr.theta(); ++i) {
    for (const VertexId v : rr.Set(i, 0)) want[v].push_back(i);
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(rr.SamplesContaining(0, v), want[v]) << v;
  }
}

// ----------------------------------------------------------------- MRR

class MrrFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = std::make_unique<Graph>(GenerateErdosRenyi(30, 0.1, 17));
    probs_ = std::make_unique<EdgeTopicProbs>(
        AssignWeightedCascadeTopics(*graph_, 6, 2.0, 19));
    Rng rng(21);
    campaign_ = Campaign::SampleUniformPieces(3, 6, &rng);
    pieces_ = BuildPieceGraphs(*graph_, *probs_, campaign_);
    mrr_ = std::make_unique<MrrCollection>(
        MrrCollection::Generate(pieces_, 2000, 23));
  }

  std::unique_ptr<Graph> graph_;
  std::unique_ptr<EdgeTopicProbs> probs_;
  Campaign campaign_;
  std::vector<InfluenceGraph> pieces_;
  std::unique_ptr<MrrCollection> mrr_;
};

TEST_F(MrrFixture, StructureBasics) {
  EXPECT_EQ(mrr_->theta(), 2000);
  EXPECT_EQ(mrr_->num_pieces(), 3);
  EXPECT_EQ(mrr_->num_vertices(), 30);
  EXPECT_NEAR(mrr_->UtilityScale(), 30.0 / 2000.0, 1e-15);
}

TEST_F(MrrFixture, EverySetContainsItsRoot) {
  for (int64_t i = 0; i < mrr_->theta(); ++i) {
    for (int j = 0; j < mrr_->num_pieces(); ++j) {
      const auto set = mrr_->Set(i, j);
      EXPECT_TRUE(std::find(set.begin(), set.end(), mrr_->root(i)) !=
                  set.end());
    }
  }
}

TEST_F(MrrFixture, InvertedIndexConsistent) {
  int64_t total = 0;
  for (int j = 0; j < mrr_->num_pieces(); ++j) {
    for (VertexId v = 0; v < mrr_->num_vertices(); ++v) {
      for (int64_t i : mrr_->SamplesContaining(j, v)) {
        const auto set = mrr_->Set(i, j);
        EXPECT_TRUE(std::find(set.begin(), set.end(), v) != set.end());
        ++total;
      }
    }
  }
  EXPECT_EQ(total, mrr_->TotalSize());
}

TEST_F(MrrFixture, RootsUniformlyDistributed) {
  std::vector<int> counts(mrr_->num_vertices(), 0);
  for (int64_t i = 0; i < mrr_->theta(); ++i) ++counts[mrr_->root(i)];
  const double expected =
      static_cast<double>(mrr_->theta()) / mrr_->num_vertices();
  for (int c : counts) {
    EXPECT_NEAR(c, expected, 6.0 * std::sqrt(expected));
  }
}

/// Asserts a == b on every observable surface: roots, per-set contents
/// (offsets + nodes), and inverted-index queries — regardless of how
/// many index segments either side holds.
void ExpectMrrBitIdentical(const MrrCollection& a, const MrrCollection& b) {
  ASSERT_EQ(a.theta(), b.theta());
  ASSERT_EQ(a.num_pieces(), b.num_pieces());
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.TotalSize(), b.TotalSize());
  for (int64_t i = 0; i < a.theta(); ++i) {
    EXPECT_EQ(a.root(i), b.root(i)) << i;
    for (int j = 0; j < a.num_pieces(); ++j) {
      const auto sa = a.Set(i, j);
      const auto sb = b.Set(i, j);
      ASSERT_EQ(sa.size(), sb.size()) << i << "," << j;
      EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin()))
          << i << "," << j;
    }
  }
  for (int j = 0; j < a.num_pieces(); ++j) {
    for (VertexId v = 0; v < a.num_vertices(); ++v) {
      EXPECT_EQ(a.SamplesContaining(j, v), b.SamplesContaining(j, v))
          << j << "," << v;
    }
  }
}

class MrrExtendTest
    : public ::testing::TestWithParam<std::tuple<DiffusionModel, int>> {};

TEST_P(MrrExtendTest, ExtendIsBitIdenticalToSingleShot) {
  const auto [model, threads] = GetParam();
  const Graph g = GenerateErdosRenyi(30, 0.1, 17);
  const EdgeTopicProbs probs = AssignWeightedCascadeTopics(g, 6, 2.0, 19);
  Rng rng(21);
  const Campaign campaign = Campaign::SampleUniformPieces(3, 6, &rng);
  const auto pieces = BuildPieceGraphs(g, probs, campaign);

  SetNumThreads(threads);
  MrrCollection grown = MrrCollection::Generate(pieces, 400, 23, model);
  grown.Extend(pieces, 1000);
  grown.Extend(pieces, 1500);
  SetNumThreads(1);
  const MrrCollection oneshot =
      MrrCollection::Generate(pieces, 1500, 23, model);
  SetNumThreads(0);

  EXPECT_EQ(grown.num_index_segments(), 3);
  EXPECT_EQ(oneshot.num_index_segments(), 1);
  ExpectMrrBitIdentical(grown, oneshot);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndThreads, MrrExtendTest,
    ::testing::Combine(
        ::testing::Values(DiffusionModel::kIndependentCascade,
                          DiffusionModel::kLinearThreshold),
        ::testing::Values(1, 4)));

TEST(MrrCollectionTest, ExtendBelowThetaIsNoOp) {
  const Graph g = GenerateErdosRenyi(20, 0.1, 3);
  const EdgeTopicProbs probs = AssignWeightedCascadeTopics(g, 4, 2.0, 5);
  Rng rng(7);
  const Campaign campaign = Campaign::SampleUniformPieces(2, 4, &rng);
  const auto pieces = BuildPieceGraphs(g, probs, campaign);
  MrrCollection mc = MrrCollection::Generate(pieces, 200, 9);
  const int64_t members = mc.TotalSize();
  mc.Extend(pieces, 100);
  mc.Extend(pieces, 200);
  EXPECT_EQ(mc.theta(), 200);
  EXPECT_EQ(mc.num_index_segments(), 1);
  EXPECT_EQ(mc.TotalSize(), members);
}

TEST(MrrCollectionTest, ProvenanceAccessors) {
  const Graph g = GenerateErdosRenyi(20, 0.1, 3);
  const EdgeTopicProbs probs = AssignWeightedCascadeTopics(g, 4, 2.0, 5);
  Rng rng(7);
  const Campaign campaign = Campaign::SampleUniformPieces(2, 4, &rng);
  const auto pieces = BuildPieceGraphs(g, probs, campaign);
  const MrrCollection mc = MrrCollection::Generate(
      pieces, 50, 99, DiffusionModel::kLinearThreshold);
  EXPECT_TRUE(mc.extendable());
  EXPECT_EQ(mc.base_seed(), 99u);
  EXPECT_EQ(mc.model(), DiffusionModel::kLinearThreshold);

  // Legacy FromParts has no provenance and must refuse to extend.
  const MrrCollection parts = MrrCollection::FromParts(
      1, 1, 3, /*roots=*/{0}, /*offsets=*/{0, 1}, /*nodes=*/{0});
  EXPECT_FALSE(parts.extendable());
}

TEST(MrrCollectionTest, ThreadCountInvariance) {
  const Graph g = GenerateErdosRenyi(25, 0.1, 29);
  const EdgeTopicProbs probs =
      AssignWeightedCascadeTopics(g, 4, 1.5, 31);
  Rng rng(33);
  const Campaign c = Campaign::SampleUniformPieces(2, 4, &rng);
  const auto pieces = BuildPieceGraphs(g, probs, c);
  SetNumThreads(1);
  const MrrCollection serial = MrrCollection::Generate(pieces, 400, 35);
  SetNumThreads(5);
  const MrrCollection parallel = MrrCollection::Generate(pieces, 400, 35);
  SetNumThreads(0);
  for (int64_t i = 0; i < 400; ++i) {
    EXPECT_EQ(serial.root(i), parallel.root(i));
    for (int j = 0; j < 2; ++j) {
      const auto a = serial.Set(i, j);
      const auto b = parallel.Set(i, j);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
  }
}

// The reverse BFS as it reads probabilities by EdgeId: the reference the
// sampler's in-edge-order stream must reproduce draw for draw.
std::vector<VertexId> ReferenceRrSet(const InfluenceGraph& ig, VertexId root,
                                     Rng* rng) {
  const Graph& g = ig.graph();
  std::vector<uint8_t> visited(g.num_vertices(), 0);
  std::vector<VertexId> set = {root};
  visited[root] = 1;
  for (size_t head = 0; head < set.size(); ++head) {
    const VertexId u = set[head];
    const auto nbrs = g.InNeighbors(u);
    const auto eids = g.InEdgeIds(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (visited[nbrs[i]]) continue;
      const float p = ig.EdgeProb(eids[i]);
      if (p > 0.0f && rng->NextFloat() < p) {
        visited[nbrs[i]] = 1;
        set.push_back(nbrs[i]);
      }
    }
  }
  return set;
}

// Pieces whose probabilities mix exact 0s and 1s with uniform draws of
// different scales, so some BFS frontiers die and some flood.
std::vector<InfluenceGraph> MixedPieces(const Graph& g, int ell,
                                        uint64_t seed) {
  Rng rng(seed);
  std::vector<InfluenceGraph> pieces;
  for (int j = 0; j < ell; ++j) {
    std::vector<float> probs(g.num_edges());
    for (float& p : probs) {
      const uint64_t kind = rng.NextBounded(8);
      p = kind == 0 ? 0.0f
          : kind == 1 ? 1.0f
                      : rng.NextFloat() / static_cast<float>(2 + j);
    }
    pieces.emplace_back(&g, std::move(probs));
  }
  return pieces;
}

TEST(RrSamplerTest, CollectionsMatchEdgeIdReferenceSampler) {
  const Graph graphs[] = {GenerateHolmeKim(600, 3, 0.5, 41),
                          GenerateBarabasiAlbert(500, 4, 43)};
  for (const Graph& g : graphs) {
    const int ell = 3;
    const int64_t theta = 700;
    const uint64_t seed = 47;
    const std::vector<InfluenceGraph> pieces = MixedPieces(g, ell, 45);
    int64_t members = 0;
    for (const int threads : {1, 3}) {
      const MrrCollection mrr = MrrCollection::Generate(
          pieces, theta, seed, DiffusionModel::kIndependentCascade, threads);
      for (int64_t i = 0; i < theta; ++i) {
        Rng root_rng(PerSampleSeed(seed, i, -1));
        const VertexId root =
            static_cast<VertexId>(root_rng.NextBounded(g.num_vertices()));
        ASSERT_EQ(mrr.root(i), root);
        for (int j = 0; j < ell; ++j) {
          Rng rng(PerSampleSeed(seed, i, j));
          const std::vector<VertexId> want =
              ReferenceRrSet(pieces[j], root, &rng);
          const auto got = mrr.Set(i, j);
          ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                                 want.end()))
              << "threads " << threads << " sample " << i << " piece " << j;
          members += static_cast<int64_t>(want.size());
        }
      }
    }
    // Not a degenerate instance: sets reach well past their roots.
    EXPECT_GT(members, 2 * 2 * theta * ell);

    // One generator across many calls: the sampler must leave it in the
    // reference's state, draw for draw.
    RrSampler sampler(g.num_vertices());
    Rng rng(51), reference_rng(51);
    std::vector<VertexId> set;
    for (VertexId root = 0; root < g.num_vertices(); root += 7) {
      sampler.Sample(pieces[root % ell], root, &rng, &set);
      ASSERT_EQ(set, ReferenceRrSet(pieces[root % ell], root, &reference_rng))
          << "root " << root;
      ASSERT_EQ(rng.Next(), reference_rng.Next()) << "root " << root;
    }

    // A one-piece collection (the IM baselines' RR sets) draws piece 0's
    // stream from the same per-sample seeds.
    const MrrCollection rr =
        MrrCollection::Generate({&pieces[1], 1}, theta, seed);
    for (int64_t i = 0; i < theta; ++i) {
      Rng root_rng(PerSampleSeed(seed, i, -1));
      const VertexId root =
          static_cast<VertexId>(root_rng.NextBounded(g.num_vertices()));
      Rng rng(PerSampleSeed(seed, i, 0));
      const std::vector<VertexId> want = ReferenceRrSet(pieces[1], root, &rng);
      const auto got = rr.Set(i, 0);
      ASSERT_EQ(rr.root(i), root);
      ASSERT_TRUE(
          std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "one-piece sample " << i;
    }
  }
}

// -------------------------------------------------------- CoverageState

class CoverageFixture : public MrrFixture {
 protected:
  void SetUp() override {
    MrrFixture::SetUp();
    // Step-function f: counts pieces (makes sums easy to verify).
    f_ = {0.0, 1.0, 1.5, 1.75};
    state_ = std::make_unique<CoverageState>(mrr_.get(), f_);
  }

  std::vector<double> f_;
  std::unique_ptr<CoverageState> state_;
};

TEST_F(CoverageFixture, EmptyStateIsZero) {
  EXPECT_EQ(state_->Utility(), 0.0);
  EXPECT_EQ(state_->RawSum(), 0.0);
  EXPECT_EQ(state_->CountHistogram()[0], mrr_->theta());
}

TEST_F(CoverageFixture, AddRemoveIsInvolution) {
  state_->AddSeed(3, 0);
  state_->AddSeed(7, 1);
  const double after_two = state_->RawSum();
  state_->AddSeed(3, 2);
  state_->RemoveSeed(3, 2);
  EXPECT_DOUBLE_EQ(state_->RawSum(), after_two);
  state_->RemoveSeed(7, 1);
  state_->RemoveSeed(3, 0);
  EXPECT_DOUBLE_EQ(state_->RawSum(), 0.0);
  EXPECT_EQ(state_->CountHistogram()[0], mrr_->theta());
}

TEST_F(CoverageFixture, MultiplicityHandlesOverlappingSeeds) {
  // Two different seeds may cover the same (sample, piece); removing one
  // must keep the sample covered.
  state_->AddSeed(1, 0);
  state_->AddSeed(2, 0);
  const double both = state_->RawSum();
  state_->RemoveSeed(1, 0);
  state_->AddSeed(1, 0);
  EXPECT_DOUBLE_EQ(state_->RawSum(), both);
}

TEST_F(CoverageFixture, RawSumMatchesDirectComputation) {
  state_->AddSeed(5, 0);
  state_->AddSeed(5, 1);
  state_->AddSeed(12, 2);
  double direct = 0.0;
  for (int64_t i = 0; i < mrr_->theta(); ++i) {
    int count = 0;
    for (int j = 0; j < 3; ++j) {
      const VertexId seed = (j == 2) ? 12 : 5;
      const auto set = mrr_->Set(i, j);
      count += std::find(set.begin(), set.end(), seed) != set.end();
    }
    direct += f_[count];
  }
  EXPECT_NEAR(state_->RawSum(), direct, 1e-9);
}

TEST_F(CoverageFixture, HistogramTracksCounts) {
  state_->AddSeed(5, 0);
  const auto& hist = state_->CountHistogram();
  int64_t total = 0;
  for (int64_t h : hist) total += h;
  EXPECT_EQ(total, mrr_->theta());
  EXPECT_EQ(hist[1],
            static_cast<int64_t>(mrr_->SamplesContaining(0, 5).size()));
}

TEST_F(CoverageFixture, GainOfAddingMatchesActualAdd) {
  state_->AddSeed(9, 1);
  const double predicted = state_->GainOfAdding(4, 1);
  const double before = state_->Utility();
  state_->AddSeed(4, 1);
  EXPECT_NEAR(state_->Utility() - before, predicted, 1e-9);
}

TEST_F(CoverageFixture, ClearResetsEverything) {
  state_->AddSeed(5, 0);
  state_->AddSeed(6, 1);
  state_->Clear();
  EXPECT_EQ(state_->RawSum(), 0.0);
  EXPECT_EQ(state_->CountHistogram()[0], mrr_->theta());
  // State is reusable after Clear.
  state_->AddSeed(5, 0);
  EXPECT_GT(state_->RawSum(), 0.0);
}

TEST_F(CoverageFixture, SnapshotRestoreRoundTrips) {
  state_->AddSeed(3, 0);
  state_->AddSeed(7, 1);
  const double sum_before = state_->RawSum();
  const std::vector<int64_t> hist_before = state_->CountHistogram();
  std::vector<int> counts_before(mrr_->theta());
  for (int64_t i = 0; i < mrr_->theta(); ++i) {
    counts_before[i] = state_->CoverCount(i);
  }

  state_->Snapshot();
  EXPECT_EQ(state_->snapshot_depth(), 1);
  state_->AddSeed(5, 0);
  state_->AddSeed(5, 2);
  state_->RemoveSeed(7, 1);  // mixed adds and removes inside the scope
  state_->AddSeed(12, 1);
  state_->RemoveSeed(12, 1);  // add-then-remove of the same seed
  EXPECT_NE(state_->RawSum(), sum_before);
  state_->Restore();
  EXPECT_EQ(state_->snapshot_depth(), 0);

  EXPECT_DOUBLE_EQ(state_->RawSum(), sum_before);
  EXPECT_EQ(state_->CountHistogram(), hist_before);
  for (int64_t i = 0; i < mrr_->theta(); ++i) {
    EXPECT_EQ(state_->CoverCount(i), counts_before[i]) << "sample " << i;
  }
  // The state stays fully usable: the pre-snapshot seeds remove cleanly.
  state_->RemoveSeed(7, 1);
  state_->RemoveSeed(3, 0);
  EXPECT_DOUBLE_EQ(state_->RawSum(), 0.0);
}

TEST_F(CoverageFixture, SnapshotsNestLifo) {
  state_->AddSeed(3, 0);
  const double level0 = state_->RawSum();
  state_->Snapshot();
  state_->AddSeed(5, 1);
  const double level1 = state_->RawSum();
  state_->Snapshot();
  state_->AddSeed(9, 2);
  EXPECT_EQ(state_->snapshot_depth(), 2);
  state_->Restore();
  EXPECT_DOUBLE_EQ(state_->RawSum(), level1);
  state_->Restore();
  EXPECT_DOUBLE_EQ(state_->RawSum(), level0);
}

TEST_F(CoverageFixture, GainAndBoundDominatesGainAndShrinks) {
  // f = {0, 1, 1.5, 1.75} has decreasing marginals, so initially the
  // bound equals the gain; after adds the bound stays >= the fresh gain.
  const auto [gain0, bound0] = state_->GainAndBoundOfAdding(4, 1);
  EXPECT_DOUBLE_EQ(gain0, state_->GainOfAdding(4, 1));
  EXPECT_GE(bound0 + 1e-12, gain0);
  state_->AddSeed(9, 1);
  state_->AddSeed(3, 0);
  const auto [gain1, bound1] = state_->GainAndBoundOfAdding(4, 1);
  EXPECT_DOUBLE_EQ(gain1, state_->GainOfAdding(4, 1));
  EXPECT_GE(bound1 + 1e-12, gain1);
  // Forward validity: the old bound still dominates the fresh gain.
  EXPECT_GE(bound0 + 1e-12, gain1);
}

TEST_F(CoverageFixture, ExtendToCollectionMatchesFreshState) {
  // Apply a plan, grow the collection, rebind incrementally; everything
  // observable must match a freshly constructed state over the grown
  // collection with the same seeds re-added.
  const std::vector<std::pair<int, VertexId>> plan = {
      {0, 3}, {1, 7}, {2, 3}, {0, 12}};
  for (const auto& [piece, v] : plan) state_->AddSeed(v, piece);

  mrr_->Extend(pieces_, 5000);
  state_->ExtendToCollection(plan);

  CoverageState fresh(mrr_.get(), f_);
  for (const auto& [piece, v] : plan) fresh.AddSeed(v, piece);

  EXPECT_DOUBLE_EQ(state_->RawSum(), fresh.RawSum());
  EXPECT_EQ(state_->CountHistogram(), fresh.CountHistogram());
  for (int64_t i = 0; i < mrr_->theta(); ++i) {
    ASSERT_EQ(state_->CoverCount(i), fresh.CoverCount(i)) << i;
    for (int j = 0; j < mrr_->num_pieces(); ++j) {
      ASSERT_EQ(state_->IsCovered(i, j), fresh.IsCovered(i, j))
          << i << "," << j;
    }
  }
  // The rebound state keeps full functionality: gains agree and seeds
  // remove cleanly down to zero.
  EXPECT_DOUBLE_EQ(state_->GainOfAdding(5, 1), fresh.GainOfAdding(5, 1));
  for (const auto& [piece, v] : plan) state_->RemoveSeed(v, piece);
  EXPECT_DOUBLE_EQ(state_->RawSum(), 0.0);
  EXPECT_EQ(state_->CountHistogram()[0], mrr_->theta());
}

TEST_F(CoverageFixture, ExtendToCollectionWithEmptyPlan) {
  state_->AddSeed(3, 0);
  state_->RemoveSeed(3, 0);
  state_->Clear();
  mrr_->Extend(pieces_, 4000);
  state_->ExtendToCollection();
  EXPECT_EQ(state_->CountHistogram()[0], mrr_->theta());
  EXPECT_DOUBLE_EQ(state_->RawSum(), 0.0);
  // Utility scale now reflects the grown theta.
  state_->AddSeed(3, 0);
  CoverageState fresh(mrr_.get(), f_);
  fresh.AddSeed(3, 0);
  EXPECT_DOUBLE_EQ(state_->Utility(), fresh.Utility());
}

TEST_F(CoverageFixture, GainBoundIsForwardValidUnderIncreasingMarginals) {
  // Convex-then-flat f: the second piece is worth more than the first,
  // so plain stale gains would UNDER-estimate later gains. The suffix-max
  // bound must still dominate every future gain of an add-only run.
  CoverageState state(mrr_.get(), {0.0, 0.1, 1.0, 1.2});
  const auto [gain0, bound0] = state.GainAndBoundOfAdding(4, 1);
  state.AddSeed(9, 0);
  state.AddSeed(3, 2);
  state.AddSeed(11, 0);
  const double fresh = state.GainOfAdding(4, 1);
  EXPECT_GE(bound0 + 1e-12, fresh);
  (void)gain0;
}

TEST_F(CoverageFixture, RandomizedOpsKeepMaskEqualToMultiplicities) {
  // Seeded random walks over every mutation — AddSeed, RemoveSeed,
  // nested Snapshot/Restore, ExtendToCollection and Clear — checked
  // after each step against a model rebuilt from scratch: the mask of
  // sample i must be {j : some active seed of piece j hits R_i^j} (i.e.
  // multiplicity > 0), and the histogram must count the popcounts.
  for (const uint64_t seed : {1u, 2u, 3u, 4u}) {
    SetUp();  // fresh collection and state per walk
    Rng rng(seed);
    using Seed = std::pair<int, VertexId>;
    std::vector<Seed> active;                // duplicates allowed
    std::vector<std::vector<Seed>> snapshots;  // model at each Snapshot
    for (int step = 0; step < 250; ++step) {
      const uint64_t op = rng.Next() % 16;
      if (op < 7 || active.empty()) {
        const Seed s{static_cast<int>(rng.Next() % 3),
                     static_cast<VertexId>(rng.Next() % 30)};
        state_->AddSeed(s.second, s.first);
        active.push_back(s);
      } else if (op < 11) {
        const size_t k = rng.Next() % active.size();
        state_->RemoveSeed(active[k].second, active[k].first);
        active.erase(active.begin() + static_cast<ptrdiff_t>(k));
      } else if (op < 13) {
        state_->Snapshot();
        snapshots.push_back(active);
      } else if (op < 15) {
        if (snapshots.empty()) continue;
        state_->Restore();
        active = std::move(snapshots.back());
        snapshots.pop_back();
      } else if (snapshots.empty()) {
        if (rng.Next() % 2 == 0 && mrr_->theta() < 4000) {
          mrr_->Extend(pieces_, mrr_->theta() + 700);
          state_->ExtendToCollection(active);
        } else {
          state_->Clear();
          active.clear();
        }
      }

      std::vector<PieceMask> want(mrr_->theta(), 0);
      for (const auto& [piece, v] : active) {
        for (const int64_t i : mrr_->SamplesContaining(piece, v)) {
          want[i] |= PieceMask{1} << piece;
        }
      }
      std::vector<int64_t> hist(4, 0);
      double sum = 0.0;
      const PieceMask* masks = state_->CoveredMasks();
      for (int64_t i = 0; i < mrr_->theta(); ++i) {
        ASSERT_EQ(masks[i], want[i])
            << "seed " << seed << " step " << step << " sample " << i;
        ASSERT_EQ(state_->CoverCount(i), std::popcount(want[i]));
        ++hist[std::popcount(want[i])];
        sum += f_[std::popcount(want[i])];
      }
      ASSERT_EQ(state_->CountHistogram(), hist)
          << "seed " << seed << " step " << step;
      ASSERT_NEAR(state_->RawSum(), sum, 1e-9);
    }
  }
}

TEST(CoverageStateTest, WidestCampaignUsesTheTopMaskBit) {
  // kMaxPieces pieces: the last piece owns bit 31 of the mask.
  const Graph g = GenerateErdosRenyi(12, 0.2, 5);
  const EdgeTopicProbs probs = AssignWeightedCascadeTopics(g, 2, 2.0, 7);
  Rng rng(9);
  const auto pieces = BuildPieceGraphs(
      g, probs, Campaign::SampleUniformPieces(kMaxPieces, 2, &rng));
  const MrrCollection mrr = MrrCollection::Generate(pieces, 300, 11);
  std::vector<double> f(kMaxPieces + 1);
  for (int c = 0; c <= kMaxPieces; ++c) f[c] = c;
  CoverageState state(&mrr, f);
  const int top = kMaxPieces - 1;
  const std::vector<int64_t> hit = mrr.SamplesContaining(top, 3);
  ASSERT_FALSE(hit.empty());
  EXPECT_DOUBLE_EQ(state.GainOfAdding(3, top) / mrr.UtilityScale(),
                   static_cast<double>(hit.size()));
  state.AddSeed(3, top);
  for (const int64_t i : hit) {
    EXPECT_EQ(state.CoveredMasks()[i], PieceMask{1} << top);
    EXPECT_TRUE(state.IsCovered(i, top));
  }
  EXPECT_EQ(state.CountHistogram()[1], static_cast<int64_t>(hit.size()));
  EXPECT_DOUBLE_EQ(state.GainOfAdding(3, top), 0.0);
}

TEST(CoverageStateDeathTest, MorePiecesThanTheMaskHoldsAbort) {
  const Graph g = GenerateErdosRenyi(8, 0.2, 5);
  const EdgeTopicProbs probs = AssignWeightedCascadeTopics(g, 2, 2.0, 7);
  Rng rng(9);
  const auto pieces = BuildPieceGraphs(
      g, probs, Campaign::SampleUniformPieces(kMaxPieces + 1, 2, &rng));
  const MrrCollection mrr = MrrCollection::Generate(pieces, 10, 11);
  EXPECT_DEATH(CoverageState(&mrr, std::vector<double>(kMaxPieces + 2)),
               "mask width");
}

// ----------------------------------------------------- CoverageKernels

// Randomized per-sample arrays for the kernel equivalence suite. Masks
// and line records are arbitrary — including greedy bits on stale
// records, which BoundEvaluator never produces — because the kernels
// must agree on every input, not only reachable ones.
struct KernelArrays {
  static constexpr int kEll = 3;
  std::vector<SampleId> ids;
  std::vector<PieceMask> covered;
  std::vector<LineRecord> lines;
  std::vector<double> delta_f;
  std::vector<double> delta_f_sufmax;
  std::vector<double> anchor_by_count;
  std::vector<double> slope_by_count;

  KernelArrays(int64_t theta, uint64_t seed) {
    Rng rng(seed);
    covered.resize(theta);
    lines.resize(theta);
    for (int64_t i = 0; i < theta; ++i) {
      covered[i] = static_cast<PieceMask>(rng.Next() % (1u << kEll));
      lines[i].value =
          static_cast<double>(rng.Next() % 2048) / 1024.0;  // may exceed 1
      lines[i].epoch = static_cast<uint32_t>(rng.Next() % 3);
      lines[i].greedy = static_cast<PieceMask>(rng.Next() % (1u << kEll));
    }
    // Non-uniform postings with duplicates and arbitrary order — the
    // kernels must not assume sorted or unique sample ids.
    for (int64_t i = 0; i < theta / 2; ++i) {
      ids.push_back(static_cast<SampleId>(rng.Next() % theta));
    }
    delta_f.resize(kEll + 1);
    delta_f_sufmax.resize(kEll + 1);
    anchor_by_count.resize(kEll + 1);
    slope_by_count.resize(kEll + 1);
    for (int c = 0; c <= kEll; ++c) {
      delta_f[c] = static_cast<double>(rng.Next() % 1000) / 997.0;
      anchor_by_count[c] = static_cast<double>(rng.Next() % 1500) / 1024.0;
      slope_by_count[c] = static_cast<double>(rng.Next() % 1000) / 1024.0;
    }
    delta_f.back() = 0.0;  // the padded "fully covered" entry
    double run = 0.0;
    for (int c = kEll; c >= 0; --c) {
      run = std::max(run, delta_f[c]);
      delta_f_sufmax[c] = run;
    }
  }

  double Gain(std::span<const SampleId> span, int piece, double acc,
              bool scalar) const {
    return (scalar ? CoverageGainSumScalar : CoverageGainSum)(
        span, covered.data(), piece, delta_f.data(), acc);
  }
  std::pair<double, double> GainBound(std::span<const SampleId> span,
                                      int piece, double gain, double bound,
                                      bool scalar) const {
    (scalar ? CoverageGainBoundSumScalar : CoverageGainBoundSum)(
        span, covered.data(), piece, delta_f.data(), delta_f_sufmax.data(),
        &gain, &bound);
    return {gain, bound};
  }
  double Tangent(std::span<const SampleId> span, int piece, uint32_t epoch,
                 double acc, bool scalar) const {
    return (scalar ? TangentGainSumScalar : TangentGainSum)(
        span, covered.data(), piece, lines.data(), epoch,
        anchor_by_count.data(), slope_by_count.data(), acc);
  }

  /// The historical skip-and-add CandidateGain loop, written out per
  /// posting with explicit branches.
  double TangentReference(std::span<const SampleId> span, int piece,
                          uint32_t epoch) const {
    double acc = 0.0;
    for (const SampleId id : span) {
      if ((covered[id] >> piece & 1) != 0) continue;
      const LineRecord& line = lines[id];
      const bool fresh = line.epoch == epoch;
      if (fresh && (line.greedy >> piece & 1) != 0) continue;
      const int c = std::popcount(covered[id]);
      const double lv = fresh ? line.value : anchor_by_count[c];
      const double headroom = 1.0 - lv;
      if (headroom <= 0.0) continue;
      acc += std::min(slope_by_count[c], headroom);
    }
    return acc;
  }
};

// Bitwise equality: EXPECT_EQ on doubles would already be exact, but
// comparing the bit patterns also distinguishes -0.0 from +0.0 — the
// accumulators must never produce a negative zero.
uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(CoverageKernelsTest, CoveredCountIsPopcount) {
  Rng rng(5);
  for (int k = 0; k < 10000; ++k) {
    const auto m = static_cast<PieceMask>(rng.Next());
    ASSERT_EQ(CoveredCount(m), std::popcount(m)) << m;
  }
  EXPECT_EQ(CoveredCount(0), 0);
  EXPECT_EQ(CoveredCount(~PieceMask{0}), kMaxPieces);
}

TEST(CoverageKernelsTest, DispatchedKernelsMatchScalarBitForBit) {
  // Spans: empty, singleton, sub-block, exactly one block, block+tail,
  // several blocks. On AVX2 hardware the dispatched side runs the
  // vector clones (SimdKernelsActive() unless OIPA_NO_SIMD is set); on
  // anything else both sides are the same scalar code and the test
  // degenerates to a tautology — CI's release leg covers the real case.
  for (const int64_t span : {0, 1, 37, 128, 131, 1000}) {
    for (const uint64_t seed : {7u, 21u, 63u}) {
      const KernelArrays a(std::max<int64_t>(span, 1), seed ^ span);
      const std::span<const SampleId> ids(
          a.ids.data(), std::min<size_t>(span, a.ids.size()));
      const double acc = 0.625;  // nonzero carried-in accumulator
      for (int piece = 0; piece < KernelArrays::kEll; ++piece) {
        const double gain_simd = a.Gain(ids, piece, acc, false);
        EXPECT_EQ(Bits(gain_simd), Bits(a.Gain(ids, piece, acc, true)))
            << span << "/" << seed << "/" << piece;

        const auto [g1, b1] = a.GainBound(ids, piece, acc, acc, false);
        const auto [g2, b2] = a.GainBound(ids, piece, acc, acc, true);
        EXPECT_EQ(Bits(g1), Bits(g2)) << span << "/" << seed;
        EXPECT_EQ(Bits(b1), Bits(b2)) << span << "/" << seed;
        EXPECT_EQ(Bits(g1), Bits(gain_simd)) << "gain paths diverged";

        for (const uint32_t epoch : {0u, 1u, 2u}) {
          const double t1 = a.Tangent(ids, piece, epoch, acc, false);
          const double t2 = a.Tangent(ids, piece, epoch, acc, true);
          EXPECT_EQ(Bits(t1), Bits(t2))
              << span << "/" << seed << "/" << piece << "@" << epoch;
          EXPECT_EQ(Bits(a.Tangent(ids, piece, epoch, 0.0, false)),
                    Bits(a.TangentReference(ids, piece, epoch)))
              << span << "/" << seed << "/" << piece << "@" << epoch;
        }
      }
    }
  }
}

TEST(CoverageKernelsTest, AccumulatorCarriesAcrossSplitSpans) {
  // Splitting one posting span at an arbitrary point and chaining the
  // accumulator must reproduce the unsplit sum exactly — the property
  // that makes grown (segmented) collections bit-identical to fresh
  // ones.
  const KernelArrays a(500, 11);
  const std::span<const SampleId> all(a.ids);
  for (const bool scalar : {false, true}) {
    for (int piece = 0; piece < KernelArrays::kEll; ++piece) {
      const double whole = a.Gain(all, piece, 0.0, scalar);
      const auto whole_gb = a.GainBound(all, piece, 0.0, 0.0, scalar);
      const double whole_t = a.Tangent(all, piece, 1, 0.0, scalar);
      for (const size_t cut : {1, 100, 128, 200}) {
        const auto head = all.subspan(0, cut);
        const auto tail = all.subspan(cut);
        EXPECT_EQ(Bits(a.Gain(tail, piece, a.Gain(head, piece, 0.0, scalar),
                              scalar)),
                  Bits(whole))
            << "cut at " << cut;
        const auto [hg, hb] = a.GainBound(head, piece, 0.0, 0.0, scalar);
        const auto chained = a.GainBound(tail, piece, hg, hb, scalar);
        EXPECT_EQ(Bits(chained.first), Bits(whole_gb.first));
        EXPECT_EQ(Bits(chained.second), Bits(whole_gb.second));
        EXPECT_EQ(Bits(a.Tangent(tail, piece, 1,
                                 a.Tangent(head, piece, 1, 0.0, scalar),
                                 scalar)),
                  Bits(whole_t))
            << "cut at " << cut;
      }
    }
  }
}

TEST(CoverageKernelsTest, GrownCollectionSumsBitIdenticalToFresh) {
  // A collection grown in three steps has three index segments, so each
  // posting list arrives as up to three spans; chained through the
  // accumulator they must sum exactly like the one-segment collection,
  // on both sides of the dispatch seam.
  const Graph g = GenerateErdosRenyi(30, 0.1, 17);
  const EdgeTopicProbs probs = AssignWeightedCascadeTopics(g, 6, 2.0, 19);
  Rng rng(21);
  const auto pieces = BuildPieceGraphs(
      g, probs, Campaign::SampleUniformPieces(KernelArrays::kEll, 6, &rng));
  MrrCollection grown = MrrCollection::Generate(pieces, 400, 23);
  grown.Extend(pieces, 1000);
  grown.Extend(pieces, 1500);
  const MrrCollection fresh = MrrCollection::Generate(pieces, 1500, 23);
  ASSERT_EQ(grown.num_index_segments(), 3);

  const KernelArrays a(1500, 31);
  for (int piece = 0; piece < KernelArrays::kEll; ++piece) {
    for (VertexId v = 0; v < 30; ++v) {
      for (const bool scalar : {false, true}) {
        double gain_grown = 0.0, gain_fresh = 0.0;
        double tangent_grown = 0.0, tangent_fresh = 0.0;
        std::pair<double, double> gb_grown{0.0, 0.0}, gb_fresh{0.0, 0.0};
        int spans = 0;
        grown.ForEachSampleSpan(piece, v, [&](std::span<const SampleId> s) {
          ++spans;
          gain_grown = a.Gain(s, piece, gain_grown, scalar);
          gb_grown = a.GainBound(s, piece, gb_grown.first, gb_grown.second,
                                 scalar);
          tangent_grown = a.Tangent(s, piece, 2, tangent_grown, scalar);
        });
        fresh.ForEachSampleSpan(piece, v, [&](std::span<const SampleId> s) {
          gain_fresh = a.Gain(s, piece, gain_fresh, !scalar);
          gb_fresh = a.GainBound(s, piece, gb_fresh.first, gb_fresh.second,
                                 !scalar);
          tangent_fresh = a.Tangent(s, piece, 2, tangent_fresh, !scalar);
        });
        EXPECT_LE(spans, 3);
        EXPECT_EQ(Bits(gain_grown), Bits(gain_fresh)) << piece << "," << v;
        EXPECT_EQ(Bits(gb_grown.first), Bits(gb_fresh.first));
        EXPECT_EQ(Bits(gb_grown.second), Bits(gb_fresh.second));
        EXPECT_EQ(Bits(tangent_grown), Bits(tangent_fresh))
            << piece << "," << v;
      }
    }
  }
}

}  // namespace
}  // namespace oipa
