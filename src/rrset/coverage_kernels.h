#ifndef OIPA_RRSET_COVERAGE_KERNELS_H_
#define OIPA_RRSET_COVERAGE_KERNELS_H_

#include <cstdint>
#include <span>

#include "rrset/mrr_collection.h"

namespace oipa {

/// Batched evaluation kernels for the coverage hot loops: each call
/// processes one contiguous inverted-index posting span (the sample ids
/// containing a candidate vertex) against the flat per-sample arrays of
/// CoverageState (one covered-piece mask per sample) and BoundEvaluator
/// (one LineRecord per sample). A posting therefore touches at
/// most two cache lines.
///
/// Bit-identity contract: every kernel computes one branchless term per
/// posting (skipped postings contribute a literal 0.0, which is exact —
/// the accumulators never hold -0.0) and then reduces STRICTLY in
/// posting order into the carried-in accumulator. The floating-point
/// result is therefore bit-identical to the historical scalar
/// skip-and-add loop, to the scalar fallback kernels below, and across
/// index segmentations (a grown collection sums in the same global
/// order as a fresh one). Only the term computation is vectorized.
///
/// Dispatch: on x86-64 the dispatched entry points resolve once, at
/// first use, to AVX2+FMA clones when the CPU supports them; otherwise
/// (and on other architectures) to the scalar kernels. The scalar path
/// is forced at runtime by setting the OIPA_NO_SIMD environment
/// variable to anything but "0", or at build time with the OIPA_NO_SIMD
/// CMake option — CI exercises both sides of the seam.

/// Covered-piece mask of one sample: bit j is set iff some seed of piece
/// j hits R_i^j. The fixed width caps a campaign at kMaxPieces pieces;
/// the API boundary (PlanningContext, the wire, the CLI) rejects wider
/// campaigns with InvalidArgument.
using PieceMask = uint32_t;
inline constexpr int kMaxPieces = 32;

/// Number of pieces covering a sample: the popcount of its mask, in
/// plain shifts and adds so the AVX2 clones vectorize it (AVX2 has no
/// vector popcount) and the scalar build needs no POPCNT.
inline int CoveredCount(PieceMask m) {
  m = m - ((m >> 1) & 0x55555555u);
  m = (m & 0x33333333u) + ((m >> 2) & 0x33333333u);
  m = (m + (m >> 4)) & 0x0f0f0f0fu;
  return static_cast<int>((m * 0x01010101u) >> 24);
}

/// BoundEvaluator's per-sample surrogate state, packed so one posting
/// reads one 16-byte record: the sample's current tangent-line value and
/// the pieces greedily covered during the bound call stamped `epoch`.
/// A record whose epoch is stale stands for {anchor value of the
/// sample's cover count, no greedy pieces}.
struct LineRecord {
  double value = 0.0;
  uint32_t epoch = 0;
  PieceMask greedy = 0;
};
static_assert(sizeof(LineRecord) == 16);

/// Sum of delta_f[CoveredCount(covered[id])] over the postings whose
/// mask lacks `piece`, accumulated in posting order starting from
/// `acc`. `delta_f` must be indexable at every count that occurs
/// (callers pad it with a zero entry at index l so the branchless
/// gather never reads out of bounds).
double CoverageGainSum(std::span<const SampleId> ids,
                       const PieceMask* covered, int piece,
                       const double* delta_f, double acc);

/// CoverageGainSum plus the matching suffix-max bound sum: for each
/// posting not covered on `piece` adds delta_f[c] to *gain_acc and
/// delta_f_sufmax[c] to *bound_acc, both in posting order.
void CoverageGainBoundSum(std::span<const SampleId> ids,
                          const PieceMask* covered, int piece,
                          const double* delta_f,
                          const double* delta_f_sufmax, double* gain_acc,
                          double* bound_acc);

/// The BoundEvaluator::CandidateGain inner loop: for each posting not
/// covered on `piece` by the anchor plan and not yet greedily covered on
/// it this bound call, adds the tangent-surrogate marginal
///   c = CoveredCount(covered[id]), fresh = lines[id].epoch == epoch
///   lv = fresh ? lines[id].value : anchor_by_count[c]
///   headroom = 1 - lv
///   term = headroom <= 0 ? 0 : min(slope_by_count[c], headroom)
/// in posting order starting from `acc`. Read-only: it never refreshes
/// a stale record (the refreshed value would equal the anchor value it
/// reads instead; ApplyCandidate refreshes the records it advances).
double TangentGainSum(std::span<const SampleId> ids,
                      const PieceMask* covered, int piece,
                      const LineRecord* lines, uint32_t epoch,
                      const double* anchor_by_count,
                      const double* slope_by_count, double acc);

/// Scalar reference implementations: always compiled, never dispatched
/// to SIMD clones. The rrset_test SIMD-vs-scalar suite asserts exact
/// (bitwise) double equality between these and the dispatched entry
/// points above.
double CoverageGainSumScalar(std::span<const SampleId> ids,
                             const PieceMask* covered, int piece,
                             const double* delta_f, double acc);
void CoverageGainBoundSumScalar(std::span<const SampleId> ids,
                                const PieceMask* covered, int piece,
                                const double* delta_f,
                                const double* delta_f_sufmax,
                                double* gain_acc, double* bound_acc);
double TangentGainSumScalar(std::span<const SampleId> ids,
                            const PieceMask* covered, int piece,
                            const LineRecord* lines, uint32_t epoch,
                            const double* anchor_by_count,
                            const double* slope_by_count, double acc);

/// True when the dispatched entry points run the vectorized clones
/// (x86-64 with AVX2, not forced scalar). Telemetry/diagnostics only.
bool SimdKernelsActive();

}  // namespace oipa

#endif  // OIPA_RRSET_COVERAGE_KERNELS_H_
