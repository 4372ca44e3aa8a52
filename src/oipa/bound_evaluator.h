#ifndef OIPA_OIPA_BOUND_EVALUATOR_H_
#define OIPA_OIPA_BOUND_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "oipa/assignment_plan.h"
#include "oipa/logistic_model.h"
#include "oipa/tangent_bound.h"
#include "rrset/coverage_state.h"
#include "rrset/mrr_collection.h"

namespace oipa {

/// The promoter-piece pair a ComputeBound call would add first — the
/// branch variable the branch-and-bound engine splits on.
struct BoundPick {
  int piece = -1;
  VertexId v = -1;
  double gain = 0.0;

  bool valid() const { return piece >= 0; }
};

/// Output of one upper-bound estimation (Algorithm 2 or Algorithm 3).
struct BoundResult {
  /// Greedy-selected completion of the anchor plan, in selection order.
  std::vector<Assignment> additions;
  /// tau(S̄ | S̄a), utility-scaled: the submodular surrogate's value at
  /// the greedy completion. Per Theorem 2, pruning against this value
  /// yields a global (1-1/e) approximation.
  double tau = 0.0;
  /// sigma(S̄ ∪ S̄a), utility-scaled: the true (MRR-estimated) adoption
  /// utility of the completed candidate plan — the lower bound.
  double sigma = 0.0;
  BoundPick first_pick;
  /// Number of tau marginal-gain evaluations performed (Theorem 4's cost
  /// metric).
  int64_t tau_evals = 0;
  /// ComputeBoundPro only: number of threshold levels scanned. Equation 9
  /// bounds this by log_{1+eps}(2k) + O(1).
  int threshold_scans = 0;
};

/// Implements ComputeBound (Algorithm 2, plain greedy over the tangent
/// surrogate) and ComputeBoundPro (Algorithm 3, progressive threshold
/// with early termination). One evaluator is reused across all
/// branch-and-bound nodes; per-sample scratch state is one epoch-stamped
/// LineRecord per sample (rrset/coverage_kernels.h), so a call
/// costs O(touched index lists), not O(theta * l). The collection may
/// have at most kMaxPieces pieces.
class BoundEvaluator {
 public:
  /// `pools[j]` is the promoter pool eligible for piece j (the paper uses
  /// one shared pool V_p; the hardness gadget uses per-piece pools).
  BoundEvaluator(const MrrCollection* mrr,
                 const LogisticAdoptionModel& model,
                 std::vector<std::vector<VertexId>> pools,
                 BoundVariant variant = BoundVariant::kZeroAnchored);

  /// Convenience: the same pool for every piece.
  BoundEvaluator(const MrrCollection* mrr,
                 const LogisticAdoptionModel& model,
                 const std::vector<VertexId>& shared_pool,
                 BoundVariant variant = BoundVariant::kZeroAnchored);

  /// Algorithm 2: greedily completes the anchor plan held in `state` with
  /// up to `budget_remaining` assignments maximizing the tangent
  /// surrogate. `excluded` pairs are unavailable. `state` is mutated to
  /// evaluate the candidate's sigma and restored before returning.
  BoundResult ComputeBound(CoverageState* state, int budget_remaining,
                           const std::vector<Assignment>& excluded);

  /// Algorithm 3: progressive threshold variant; `epsilon` is the
  /// threshold decay (h <- h/(1+epsilon)). With `fill_budget` false this
  /// is the verbatim algorithm: the Line-14 cutoff may return fewer than
  /// `budget_remaining` additions. With `fill_budget` true (default) the
  /// threshold schedule keeps running past the cutoff until the budget is
  /// filled or no candidate has positive gain — the bound value and its
  /// guarantee are unchanged, but the returned candidate plan (the
  /// incumbent source) never wastes budget.
  BoundResult ComputeBoundPro(CoverageState* state, int budget_remaining,
                              const std::vector<Assignment>& excluded,
                              double epsilon, bool fill_budget = true);

  /// CELF-accelerated Algorithm 2 (our ablation, not in the paper):
  /// identical selections to ComputeBound — the surrogate is submodular,
  /// so lazy re-evaluation is exact — with far fewer gain evaluations.
  BoundResult ComputeBoundLazy(CoverageState* state, int budget_remaining,
                               const std::vector<Assignment>& excluded);

  /// Rebinds the evaluator after MrrCollection::Extend grew the
  /// collection: the per-sample scratch arrays are appended in place
  /// (O(new samples)), never rebuilt. Call between bound computations —
  /// a subsequent ComputeBound* behaves exactly like one from a freshly
  /// constructed evaluator over the grown collection.
  void SyncWithCollection();

  /// Cumulative tau evaluations across all calls.
  int64_t total_tau_evals() const { return total_tau_evals_; }

  const TangentTable& tangent_table() const { return table_; }

  /// The per-piece candidate pools this evaluator owns (used to stamp
  /// out thread-local evaluator clones without a second stored copy).
  const std::vector<std::vector<VertexId>>& pools() const {
    return pools_;
  }

 private:
  /// Gain of candidate (piece, v) under the current greedy-phase state.
  double CandidateGain(int piece, VertexId v, const CoverageState& state);

  /// Applies candidate (piece, v): marks its samples greedily covered on
  /// `piece` and advances their line values, refreshing stale records
  /// first. Returns the realized gain.
  double ApplyCandidate(int piece, VertexId v, const CoverageState& state);

  /// Sum of anchor line values over all samples (unscaled).
  double BaseTau(const CoverageState& state) const;

  void BeginCall(const std::vector<Assignment>& excluded);
  void EndCall(const std::vector<Assignment>& excluded);
  bool IsExcluded(int piece, VertexId v) const;

  /// Completes the BoundResult: evaluates sigma by temporarily adding the
  /// additions to `state`.
  void FinishResult(CoverageState* state, double tau_raw,
                    BoundResult* result);

  const MrrCollection* mrr_;
  LogisticAdoptionModel model_;
  TangentTable table_;
  std::vector<std::vector<VertexId>> pools_;
  VertexId num_vertices_;
  int num_pieces_;

  // Epoch-stamped scratch (no O(theta) clearing between calls): a
  // record is current only while its epoch equals epoch_.
  uint32_t epoch_ = 0;
  std::vector<LineRecord> lines_;       // theta
  std::vector<uint8_t> excluded_flag_;  // l * n (set/cleared per call)
  /// table_.line(c) flattened to per-count arrays for the kernels.
  /// Sized l+1: cover counts legitimately reach l.
  std::vector<double> anchor_by_count_;
  std::vector<double> slope_by_count_;

  int64_t total_tau_evals_ = 0;
};

}  // namespace oipa

#endif  // OIPA_OIPA_BOUND_EVALUATOR_H_
