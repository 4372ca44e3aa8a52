#include "oipa/adoption.h"

#include "diffusion/cascade.h"
#include "rrset/coverage_kernels.h"
#include "util/logging.h"
#include "util/random.h"

namespace oipa {

double EstimateAdoptionUtility(const MrrCollection& mrr,
                               const LogisticAdoptionModel& model,
                               const AssignmentPlan& plan) {
  OIPA_CHECK_EQ(plan.num_pieces(), mrr.num_pieces());
  OIPA_CHECK_LE(mrr.num_pieces(), kMaxPieces) << "covered-piece mask width";
  const std::vector<double> f = model.AdoptionTable(mrr.num_pieces());
  // Only a sample's covered-piece mask matters: a sum term is added when
  // a bit first flips, exactly as CoverageState::Cover adds delta_f, in
  // the same order, so the sum is bit-identical to
  // CoverageState::Utility() without its multiplicity rows.
  std::vector<PieceMask> covered(mrr.theta(), 0);
  double sum = 0.0;
  for (const auto& [piece, v] : plan.Assignments()) {
    const PieceMask bit = PieceMask{1} << piece;
    mrr.ForEachSampleContaining(piece, v, [&](int64_t i) {
      PieceMask& mask = covered[i];
      if ((mask & bit) != 0) return;
      const int c = CoveredCount(mask);
      sum += f[c + 1] - f[c];
      mask |= bit;
    });
  }
  return sum * mrr.UtilityScale();
}

double SimulateAdoptionUtility(const std::vector<InfluenceGraph>& pieces,
                               const LogisticAdoptionModel& model,
                               const AssignmentPlan& plan, int trials,
                               uint64_t seed) {
  OIPA_CHECK_EQ(plan.num_pieces(), static_cast<int>(pieces.size()));
  OIPA_CHECK_GT(trials, 0);
  const VertexId n = pieces.empty() ? 0 : pieces[0].graph().num_vertices();
  Rng rng(seed);
  std::vector<int> receive_count(n);
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    std::fill(receive_count.begin(), receive_count.end(), 0);
    for (int j = 0; j < plan.num_pieces(); ++j) {
      if (plan.SeedSet(j).empty()) continue;
      const std::vector<uint8_t> active =
          SimulateCascade(pieces[j], plan.SeedSet(j), &rng);
      for (VertexId v = 0; v < n; ++v) receive_count[v] += active[v];
    }
    for (VertexId v = 0; v < n; ++v) {
      total += model.AdoptionProb(receive_count[v]);
    }
  }
  return total / trials;
}

double ExpectationOverCountDistribution(const std::vector<double>& probs,
                                        const std::vector<double>& f_table) {
  const int l = static_cast<int>(probs.size());
  OIPA_CHECK_EQ(static_cast<int>(f_table.size()), l + 1);
  // DP over the count distribution of independent Bernoullis.
  std::vector<double> dist(l + 1, 0.0);
  dist[0] = 1.0;
  for (int j = 0; j < l; ++j) {
    const double q = probs[j];
    OIPA_CHECK_GE(q, -1e-12);
    OIPA_CHECK_LE(q, 1.0 + 1e-12);
    for (int c = j + 1; c >= 1; --c) {
      dist[c] = dist[c] * (1.0 - q) + dist[c - 1] * q;
    }
    dist[0] *= (1.0 - q);
  }
  double expectation = 0.0;
  for (int c = 0; c <= l; ++c) expectation += dist[c] * f_table[c];
  return expectation;
}

double ExactAdoptionUtility(const std::vector<InfluenceGraph>& pieces,
                            const LogisticAdoptionModel& model,
                            const AssignmentPlan& plan) {
  OIPA_CHECK_EQ(plan.num_pieces(), static_cast<int>(pieces.size()));
  const int l = plan.num_pieces();
  const VertexId n = pieces.empty() ? 0 : pieces[0].graph().num_vertices();

  // Per-piece exact reach probabilities (pieces propagate independently).
  std::vector<std::vector<double>> reach(l);
  for (int j = 0; j < l; ++j) {
    reach[j] = ExactReachProbabilities(pieces[j], plan.SeedSet(j));
  }

  const std::vector<double> f_table = model.AdoptionTable(l);
  double utility = 0.0;
  std::vector<double> probs(l);
  for (VertexId v = 0; v < n; ++v) {
    for (int j = 0; j < l; ++j) probs[j] = reach[j][v];
    utility += ExpectationOverCountDistribution(probs, f_table);
  }
  return utility;
}

}  // namespace oipa
