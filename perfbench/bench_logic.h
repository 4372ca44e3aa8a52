#ifndef OIPA_PERFBENCH_BENCH_LOGIC_H_
#define OIPA_PERFBENCH_BENCH_LOGIC_H_

// Pure, I/O-free pieces of the repository benchmark: seeded operation
// lists, percentile rules, the rate-ladder decision and the trace
// self-time fold. Kept apart from bench_main.cc so that
// bench_logic_test.cc can pin them down without a dataset or a daemon.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ statistics

/// Samples that must lie strictly above the reported tail value.
inline constexpr int64_t kTailSamplesBeyond = 10;

/// 0-based ascending rank of the tail sample among `n` samples: the
/// highest rank with at least kTailSamplesBeyond samples beyond it.
/// -1 when there are too few samples to have a tail.
int64_t TailRank(int64_t n);

/// The tail value plus what it stands for: the percentile of its rank
/// and the sample count it was taken from.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  int64_t samples = 0;
};

/// Tail of `values` under the TailRank rule; value 0 and percentile 0
/// when TailRank(values.size()) < 0.
Tail TailOf(std::vector<double> values);

/// Median (mean of the two middle values for even sizes); 0 when empty.
double Median(std::vector<double> values);

/// True when `name` is a legal metric name: 1..64 characters from
/// [A-Za-z0-9_.-], starting with a letter or a digit.
bool ValidMetricName(std::string_view name);

// --------------------------------------------------------- seeded inputs

/// SplitMix64 finalizer over (seed, salt): independent streams for the
/// different inputs one workload seed has to drive.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

/// One cold-plan operation: a fresh three-piece campaign (one topic per
/// piece) and the sampling seed of its private sample store.
struct ColdPlanOp {
  std::array<int, 3> topics{};
  uint64_t sample_seed = 0;

  bool operator==(const ColdPlanOp&) const = default;
};

/// `n` cold-plan operations over `num_topics` topics (a multiple of 3).
/// Every block of num_topics/3 consecutive operations uses each topic
/// exactly once, so the sampling work of a block does not depend on
/// the seed — only which topics share a campaign, and the order, do.
std::vector<ColdPlanOp> MakeColdPlanOps(uint64_t seed, int n,
                                        int num_topics);

/// One warm solve of the search workload.
struct SearchOp {
  std::string method;
  int k = 0;

  bool operator==(const SearchOp&) const = default;
};

/// The (method, k) classes of the search workload with their count per
/// block. The counts are inverse to the classes' cost so that no class
/// takes more than about half of the workload's time.
struct SearchClass {
  const char* method;
  int k;
  int per_block;
};
const std::vector<SearchClass>& SearchClasses();

/// `n` search operations: whole blocks of SearchClasses() (the last one
/// truncated), each block shuffled by `seed`.
std::vector<SearchOp> MakeSearchOps(uint64_t seed, int n);

/// Request kinds of the serve-mix traffic.
enum class ServeKind {
  kHit,        // sequential bab-p k in {10, 20} on a warm context
  kParallel,   // bab-p k = 40 with two solver threads
  kHeuristic,  // degree-discount on a warm context
  kRaise,      // sequential bab-p k = 10 that raises theta on a warm context
  kMiss,       // first request for a new dataset seed
};
const char* ServeKindName(ServeKind kind);

/// One serve-mix request: its kind, budget, which warm context it
/// targets (or, for a miss, which fresh dataset), and its arrival time
/// relative to the start of its phase.
struct ServeOp {
  ServeKind kind = ServeKind::kHit;
  int k = 10;
  int context = 0;
  double at_s = 0.0;

  bool operator==(const ServeOp&) const = default;
};

/// Shares and sizes of one serve-mix phase.
struct ServeMix {
  int warm_contexts = 8;
  /// Requests of each kind per 20 requests (misses and raises are fixed
  /// counts instead). Parallel solves hold two CPUs each, so they are
  /// kept rare: at 3 in 20 the median latency rose further whenever the
  /// shared host was busy (see README.md).
  int hits_per_20 = 16;
  int parallel_per_20 = 1;
  int heuristics_per_20 = 3;
  int raises = 0;
  int misses = 0;
};

/// `n` requests of `mix` (raises and misses included in `n`) with seeded
/// Poisson arrivals at `rate` requests/s, conditioned on the n arrivals
/// spanning n / rate seconds. The read requests are shuffled
/// by `seed` within blocks of 20 that keep the mix's shares; raises and
/// misses are spread evenly through the list and numbered by `context`
/// in list order.
std::vector<ServeOp> MakeServeOps(uint64_t seed, int n, const ServeMix& mix,
                                  double rate);

// ------------------------------------------------------------ rate ladder

/// Outcome of one rung of an open-loop rate ladder.
struct Rung {
  double rate = 0.0;
  Tail tail;
  int64_t sent = 0;
  /// Failed or refused requests (already counted in the tail).
  int64_t failed = 0;
  /// Requests still unanswered when the last one was due, minus those
  /// outstanding when the middle one was due: > 0 means the backlog grew.
  int64_t backlog_growth = 0;
};

/// One request of an open-loop phase, as the load generator saw it.
/// Times are seconds on one steady clock.
struct Arrival {
  double due = 0.0;
  double done = 0.0;
};

/// Rung::backlog_growth for `arrivals` (sorted by due time).
int64_t BacklogGrowth(const std::vector<Arrival>& arrivals);

/// How far the backlog may rise over a rung before it counts as
/// growing: Poisson arrivals and uneven service times make it wander by
/// a few requests even far below capacity, so the allowance is the
/// larger of the worker count and a tenth of the rung's requests.
int64_t BacklogAllowance(const Rung& rung, int workers);

/// True when `rung` meets `limit_ms`: a tail within the limit (failed
/// and refused requests enter the tail as missing it) and a backlog that
/// did not grow beyond BacklogAllowance().
bool RungPasses(const Rung& rung, double limit_ms, int workers);

/// Highest rate meeting the limit, from rungs run in increasing rate
/// order. Tails are capped at twice the limit, and a rung whose backlog
/// grew counts as twice the limit. The tails are then fitted to a
/// non-decreasing curve of the rate (pool-adjacent-violators), so one
/// noisy rung cannot end the climb early or late; the rate is then
/// interpolated where the fitted curve crosses the limit, so the result
/// moves continuously instead of jumping a whole rung. 0 when the curve
/// starts above the limit; the last rate when it never crosses it.
double MaxPassingRate(const std::vector<Rung>& rungs, double limit_ms,
                      int workers);

// ---------------------------------------------------------------- tracing

/// One recorded span: a layer call made by the bench (or, in serve-mix,
/// a solve reported by the daemon, placed inside its request span).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in the span list; -1 for a root.
  int64_t parent = -1;
  int64_t op = -1;
};

/// Self time per span name, in nanoseconds: each span's duration minus
/// the durations of its direct children, summed by name.
std::map<std::string, int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // OIPA_PERFBENCH_BENCH_LOGIC_H_
