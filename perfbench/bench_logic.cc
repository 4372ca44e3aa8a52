#include "perfbench/bench_logic.h"

#include <algorithm>
#include <cmath>

#include "util/random.h"

namespace perfbench {

int64_t TailRank(int64_t n) {
  return n > kTailSamplesBeyond ? n - kTailSamplesBeyond - 1 : -1;
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = static_cast<int64_t>(values.size());
  const int64_t rank = TailRank(tail.samples);
  if (rank < 0) return tail;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  tail.value = values[rank];
  tail.percentile = 100.0 * static_cast<double>(rank + 1) /
                    static_cast<double>(tail.samples);
  return tail;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

template <typename T>
void Shuffle(std::vector<T>* items, oipa::Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->NextBounded(i)]);
  }
}

}  // namespace

std::vector<ColdPlanOp> MakeColdPlanOps(uint64_t seed, int n,
                                        int num_topics) {
  oipa::Rng rng(DeriveSeed(seed, 1));
  std::vector<ColdPlanOp> ops;
  ops.reserve(n);
  std::vector<int> topics(num_topics);
  while (static_cast<int>(ops.size()) < n) {
    for (int t = 0; t < num_topics; ++t) topics[t] = t;
    Shuffle(&topics, &rng);
    for (int j = 0; j + 3 <= num_topics && static_cast<int>(ops.size()) < n;
         j += 3) {
      ColdPlanOp op;
      op.topics = {topics[j], topics[j + 1], topics[j + 2]};
      op.sample_seed = DeriveSeed(seed, 1000 + ops.size());
      ops.push_back(op);
    }
  }
  return ops;
}

const std::vector<SearchClass>& SearchClasses() {
  // Costs measured on a 4-vCPU host with the lastfm context of the
  // search workload: bab-p 2/9/38 ms, bab 9/125/560 ms (k = 10/20/40),
  // im 14 ms, tim 38 ms. One block is 27 solves, about 1.2 s, of which
  // bab k = 40 takes just under half.
  static const std::vector<SearchClass> kClasses = {
      {"bab-p", 10, 6}, {"bab-p", 20, 6}, {"bab-p", 40, 4},
      {"bab", 10, 4},   {"bab", 20, 2},   {"bab", 40, 1},
      {"im", 20, 2},    {"tim", 20, 2},
  };
  return kClasses;
}

std::vector<SearchOp> MakeSearchOps(uint64_t seed, int n) {
  oipa::Rng rng(DeriveSeed(seed, 2));
  std::vector<SearchOp> block;
  for (const SearchClass& c : SearchClasses()) {
    for (int i = 0; i < c.per_block; ++i) block.push_back({c.method, c.k});
  }
  std::vector<SearchOp> ops;
  ops.reserve(n);
  while (static_cast<int>(ops.size()) < n) {
    Shuffle(&block, &rng);
    for (const SearchOp& op : block) {
      if (static_cast<int>(ops.size()) == n) break;
      ops.push_back(op);
    }
  }
  return ops;
}

const char* ServeKindName(ServeKind kind) {
  switch (kind) {
    case ServeKind::kHit:
      return "hit";
    case ServeKind::kParallel:
      return "parallel";
    case ServeKind::kHeuristic:
      return "heuristic";
    case ServeKind::kRaise:
      return "raise";
    case ServeKind::kMiss:
      return "miss";
  }
  return "unknown";
}

std::vector<ServeOp> MakeServeOps(uint64_t seed, int n, const ServeMix& mix,
                                  double rate) {
  oipa::Rng rng(DeriveSeed(seed, 3));
  // The read mix cycles through the per-20 shares in a fixed order; the
  // shuffle below is what the seed changes.
  const int fixed_count = std::min(n, mix.raises + mix.misses);
  const int per_20 = mix.hits_per_20 + mix.parallel_per_20 +
                     mix.heuristics_per_20;
  std::vector<ServeOp> reads;
  int hits = 0;
  int parallel = 0;
  int heuristics = 0;
  for (int i = 0; i < n - fixed_count; ++i) {
    const int slot = i % per_20;
    ServeOp op;
    if (slot < mix.hits_per_20) {
      op.kind = ServeKind::kHit;
      op.k = hits % 2 == 0 ? 10 : 20;
      op.context = (hits++ / 2) % mix.warm_contexts;
    } else if (slot < mix.hits_per_20 + mix.parallel_per_20) {
      op.kind = ServeKind::kParallel;
      op.k = 40;
      op.context = parallel++ % mix.warm_contexts;
    } else {
      op.kind = ServeKind::kHeuristic;
      op.k = 20;
      op.context = heuristics++ % mix.warm_contexts;
    }
    reads.push_back(op);
  }
  // Shuffled within blocks of per_20 requests: every block keeps the
  // mix's shares, so no stretch of the phase runs heavier than another.
  for (size_t begin = 0; begin < reads.size(); begin += per_20) {
    std::vector<ServeOp> block(
        reads.begin() + begin,
        reads.begin() + std::min(reads.size(), begin + per_20));
    Shuffle(&block, &rng);
    std::copy(block.begin(), block.end(), reads.begin() + begin);
  }
  // Raises and misses sit at evenly spaced places in the list: each
  // holds a worker for tens of milliseconds, and Poisson clumping of two
  // of them would make the phase's tail depend on the seed.
  std::vector<ServeOp> ops(n);
  std::vector<char> taken(n, 0);
  const auto place = [&](ServeKind kind, int count, double offset) {
    for (int j = 0; j < count; ++j) {
      int at = static_cast<int>((j + offset) * n / count);
      while (taken[at % n]) ++at;
      ops[at % n] = {kind, 10, j, 0.0};
      taken[at % n] = 1;
    }
  };
  place(ServeKind::kMiss, std::min(n, mix.misses), 0.5);
  place(ServeKind::kRaise, std::min(n - std::min(n, mix.misses), mix.raises),
        0.0);
  size_t next_read = 0;
  for (int i = 0; i < n; ++i) {
    if (!taken[i]) ops[i] = reads[next_read++];
  }
  // A Poisson process with exactly n arrivals in n / rate seconds:
  // partial sums of n + 1 exponential gaps, scaled so the last one lands
  // on the end of the phase (the uniform order statistics). The load of
  // the phase then does not depend on the seed, only its timing does.
  std::vector<double> sums;
  double t = 0.0;
  for (int i = 0; i <= n; ++i) {
    // 1 - u lies in (0, 1].
    t += -std::log(1.0 - rng.NextDouble());
    sums.push_back(t);
  }
  const double scale = n / rate / t;
  for (int i = 0; i < n; ++i) ops[i].at_s = sums[i] * scale;
  return ops;
}

int64_t BacklogGrowth(const std::vector<Arrival>& arrivals) {
  if (arrivals.size() < 2) return 0;
  const auto outstanding = [&](size_t last) {
    const double t = arrivals[last].due;
    int64_t open = 0;
    for (size_t i = 0; i <= last; ++i) open += arrivals[i].done > t ? 1 : 0;
    return open;
  };
  return outstanding(arrivals.size() - 1) - outstanding(arrivals.size() / 2);
}

int64_t BacklogAllowance(const Rung& rung, int workers) {
  return std::max<int64_t>(workers, rung.sent / 10);
}

bool RungPasses(const Rung& rung, double limit_ms, int workers) {
  return rung.tail.samples > 0 && rung.tail.value <= limit_ms &&
         rung.backlog_growth <= BacklogAllowance(rung, workers);
}

double MaxPassingRate(const std::vector<Rung>& rungs, double limit_ms,
                      int workers) {
  if (rungs.empty()) return 0.0;
  // Pool adjacent violators: blocks of (sum, count) whose means rise.
  std::vector<std::pair<double, int>> blocks;
  for (const Rung& rung : rungs) {
    const double tail =
        rung.backlog_growth <= BacklogAllowance(rung, workers)
            ? std::min(rung.tail.value, 2 * limit_ms)
            : 2 * limit_ms;
    blocks.push_back({tail, 1});
    while (blocks.size() > 1 &&
           blocks[blocks.size() - 2].first / blocks[blocks.size() - 2].second >
               blocks.back().first / blocks.back().second) {
      blocks[blocks.size() - 2].first += blocks.back().first;
      blocks[blocks.size() - 2].second += blocks.back().second;
      blocks.pop_back();
    }
  }
  std::vector<double> fitted;
  for (const auto& [sum, count] : blocks) {
    for (int i = 0; i < count; ++i) fitted.push_back(sum / count);
  }
  if (fitted.front() > limit_ms) return 0.0;
  for (size_t i = 1; i < fitted.size(); ++i) {
    if (fitted[i] > limit_ms) {
      const double share =
          (limit_ms - fitted[i - 1]) / (fitted[i] - fitted[i - 1]);
      return rungs[i - 1].rate + share * (rungs[i].rate - rungs[i - 1].rate);
    }
  }
  return rungs.back().rate;
}

std::map<std::string, int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] += spans[i].end_ns - spans[i].start_ns;
    if (spans[i].parent >= 0) {
      self[spans[i].parent] -= spans[i].end_ns - spans[i].start_ns;
    }
  }
  std::map<std::string, int64_t> by_name;
  for (size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] += self[i];
  return by_name;
}

}  // namespace perfbench
