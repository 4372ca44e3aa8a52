// Incremental sampling engine bench: measures MRR generation and
// in-place growth throughput (samples/sec) at several worker-thread
// counts, verifies that growing a collection costs the same per-sample
// as generating it, spot-checks that the threaded collections are
// bit-identical to the single-threaded ones (the PerSampleSeed
// determinism contract), and grows a SampleStore (in-sample + holdout)
// by doubling to demonstrate that every sample is drawn at most once
// per collection (the store's sample counter equals 2 * final theta,
// where regenerating both collections every round would pay 2 * sum of
// all round sizes).
//
// Each throughput leg runs a warm-up and then 5 timed repetitions of at
// least 200 ms each (one leg alone lasts only 8-60 ms, too short to gate
// on) and reports the median, min and p90 samples/sec across
// repetitions.
//
// The lastfm legs run from L2. A report-only leg repeats single-threaded
// generation on dblp at scale 0.1 (50K vertices, 600K edges, 2.4 MB of
// probabilities per piece), where each examined in-edge can miss the
// cache, so layout changes to the reverse BFS show up in the
// trajectory. It has no floor.
//
// Emits BENCH_sampling.json (uploaded by CI next to the other bench
// trajectories). The median samples_per_sec of the single-threaded legs
// is what scripts/check_perf_regression.py gates against the baseline.
//
// Flags: --dataset=lastfm --ell=3 --theta=20000 --extend_rounds=3
//        --sampling_threads=1,4,16 --output=BENCH_sampling.json

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "cli/json_writer.h"
#include "rrset/mrr_collection.h"
#include "rrset/sample_store.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/timer.h"

namespace {

/// Order-sensitive FNV-1a over every root and membership of the
/// collection: two collections hash equal iff they hold the same
/// samples in the same posting order — the property the parallel
/// generation path promises at any thread count.
uint64_t Fingerprint(const oipa::MrrCollection& mrr) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    h = (h ^ v) * 1099511628211ull;
  };
  for (int64_t i = 0; i < mrr.theta(); ++i) {
    mix(static_cast<uint64_t>(mrr.root(i)));
    for (int piece = 0; piece < mrr.num_pieces(); ++piece) {
      for (const oipa::VertexId v : mrr.Set(i, piece)) {
        mix(static_cast<uint64_t>(v));
      }
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace oipa;
  using namespace oipa::bench;
  FlagParser flags(argc, argv);
  const std::string dataset = flags.GetString("dataset", "lastfm");
  const int ell = static_cast<int>(flags.GetInt("ell", 3));
  const int64_t theta = flags.GetInt("theta", 20'000);
  const int extend_rounds =
      static_cast<int>(flags.GetInt("extend_rounds", 3));
  const std::string output =
      flags.GetString("output", "BENCH_sampling.json");

  std::printf("=== incremental sampling: %s, ell=%d, theta=%lld ===\n",
              dataset.c_str(), ell,
              static_cast<long long>(theta));
  // MakeEnv samples `theta` sets itself; reuse its dataset + pieces.
  const BenchEnv env = MakeEnv(dataset, RequestedScales(flags), ell,
                               theta, 13);

  JsonValue result = JsonValue::Object();
  result.Set("dataset", dataset).Set("ell", ell).Set("theta", theta);

  const std::vector<int64_t> sampling_threads =
      flags.GetIntList("sampling_threads", {1, 4, 16});

  const auto leg_json = [](const LegStats& stats) {
    JsonValue j = JsonValue::Object();
    j.Set("samples_per_sec", stats.median)
        .Set("samples_per_sec_min", stats.min)
        .Set("samples_per_sec_p90", stats.p90)
        .Set("repetitions", stats.repetitions)
        .Set("runs_per_repetition", stats.runs_per_repetition);
    return j;
  };
  const auto measure = [](const std::function<std::pair<double, double>()>&
                              run) {
    return MeasureLeg(run, /*repetitions=*/5,
                      /*min_repetition_seconds=*/0.2);
  };

  // ------------------------------------------------ generation throughput
  {
    JsonValue by_threads = JsonValue::Array();
    uint64_t single_thread_hash = 0;
    for (const int64_t threads64 : sampling_threads) {
      const int threads = static_cast<int>(threads64);
      uint64_t hash = 0;
      int64_t memberships = 0;
      int64_t memory_bytes = 0;
      const LegStats stats = measure([&] {
        WallTimer timer;
        const MrrCollection fresh = MrrCollection::Generate(
            env.pieces, theta, 29, DiffusionModel::kIndependentCascade,
            threads);
        const double seconds = timer.Seconds();
        if (hash == 0) {
          hash = Fingerprint(fresh);
          memberships = fresh.TotalSize();
          memory_bytes = fresh.MemoryBytes();
        }
        return std::pair<double, double>(static_cast<double>(theta),
                                         seconds);
      });
      if (threads == 1) single_thread_hash = hash;
      // PerSampleSeed determinism: any thread count must reproduce the
      // single-threaded collection bit for bit.
      if (single_thread_hash != 0) {
        OIPA_CHECK_EQ(hash, single_thread_hash)
            << "parallel generation diverged at " << threads
            << " threads";
      }
      JsonValue j = leg_json(stats);
      j.Set("threads", threads)
          .Set("samples", theta)
          .Set("memberships", memberships)
          .Set("memory_bytes", memory_bytes);
      std::printf(
          "generate[threads=%d]: %lld samples x %lld runs x %d reps: "
          "median %.0f samples/s (min %.0f, p90 %.0f)\n",
          threads, static_cast<long long>(theta),
          static_cast<long long>(stats.runs_per_repetition),
          stats.repetitions, stats.median, stats.min, stats.p90);
      // The gated scalar throughput keeps its historical flat shape.
      if (threads == 1) {
        result.Set("generate", j);
      }
      by_threads.Append(std::move(j));
    }
    result.Set("generate_by_threads", std::move(by_threads));
  }

  // ------------------------------------ cache-bound generation (no floor)
  {
    constexpr double kCacheBoundScale = 0.1;
    BenchScales scales;
    scales.dblp = kCacheBoundScale;
    const BenchEnv dblp = MakeEnv("dblp", scales, ell, theta, 13);
    const LegStats stats = measure([&] {
      WallTimer timer;
      const MrrCollection fresh = MrrCollection::Generate(
          dblp.pieces, theta, 29, DiffusionModel::kIndependentCascade, 1);
      return std::pair<double, double>(static_cast<double>(theta),
                                       timer.Seconds());
    });
    JsonValue j = leg_json(stats);
    j.Set("dataset", "dblp")
        .Set("scale", kCacheBoundScale)
        .Set("vertices", static_cast<int64_t>(
                             dblp.dataset.graph->num_vertices()))
        .Set("edges", dblp.dataset.graph->num_edges())
        .Set("threads", 1)
        .Set("samples", theta);
    std::printf(
        "generate[dblp %.2f, threads=1]: %lld samples x %lld runs x %d "
        "reps: median %.0f samples/s (min %.0f, p90 %.0f)\n",
        kCacheBoundScale, static_cast<long long>(theta),
        static_cast<long long>(stats.runs_per_repetition),
        stats.repetitions, stats.median, stats.min, stats.p90);
    result.Set("generate_cache_bound", std::move(j));
  }

  // ----------------------------------------------------- growth throughput
  {
    JsonValue by_threads = JsonValue::Array();
    uint64_t single_thread_hash = 0;
    for (const int64_t threads64 : sampling_threads) {
      const int threads = static_cast<int>(threads64);
      uint64_t hash = 0;
      int64_t grown_samples = 0;
      int64_t final_theta = 0;
      int index_segments = 0;
      const LegStats stats = measure([&] {
        // The starting collection is drawn off the clock.
        MrrCollection grown = MrrCollection::Generate(
            env.pieces, theta / 2, 29, DiffusionModel::kIndependentCascade,
            threads);
        WallTimer timer;
        grown_samples = 0;
        int64_t target = theta;
        for (int r = 0; r < extend_rounds; ++r, target *= 2) {
          grown_samples += target - grown.theta();
          grown.Extend(env.pieces, target, threads);
        }
        const double seconds = timer.Seconds();
        if (hash == 0) {
          hash = Fingerprint(grown);
          final_theta = grown.theta();
          index_segments = grown.num_index_segments();
        }
        return std::pair<double, double>(
            static_cast<double>(grown_samples), seconds);
      });
      if (threads == 1) single_thread_hash = hash;
      if (single_thread_hash != 0) {
        OIPA_CHECK_EQ(hash, single_thread_hash)
            << "parallel growth diverged at " << threads << " threads";
      }
      JsonValue j = leg_json(stats);
      j.Set("threads", threads)
          .Set("rounds", extend_rounds)
          .Set("samples", grown_samples)
          .Set("final_theta", final_theta)
          .Set("index_segments", index_segments);
      std::printf(
          "extend[threads=%d]: %lld samples across %d rounds x %lld runs "
          "x %d reps: median %.0f samples/s (min %.0f, p90 %.0f, %d "
          "index segments)\n",
          threads, static_cast<long long>(grown_samples), extend_rounds,
          static_cast<long long>(stats.runs_per_repetition),
          stats.repetitions, stats.median, stats.min, stats.p90,
          index_segments);
      if (threads == 1) {
        result.Set("extend", j);
      }
      by_threads.Append(std::move(j));
    }
    result.Set("extend_by_threads", std::move(by_threads));
  }

  // ---------------------------------------------------------- store growth
  {
    SampleStore::Options options;
    options.theta = theta;  // the holdout draws as many
    options.seed = 47;
    const int64_t before = SampleStore::GeneratedSampleCount();
    WallTimer timer;
    const std::shared_ptr<SampleStore> store = SampleStore::Create(
        std::make_shared<const std::vector<InfluenceGraph>>(env.pieces),
        options);
    // What regenerating both collections every round would draw.
    int64_t regenerate_cost = 2 * theta;
    int64_t target = theta;
    for (int r = 0; r < extend_rounds; ++r) {
      target *= 2;
      const Status grown = store->Grow(target);
      OIPA_CHECK(grown.ok()) << grown.ToString();
      regenerate_cost += 2 * target;
    }
    const double seconds = timer.Seconds();
    const int64_t drawn = SampleStore::GeneratedSampleCount() - before;
    OIPA_CHECK_EQ(store->theta(), target);
    OIPA_CHECK_EQ(drawn, 2 * target)
        << "the sample store drew a sample more than once per collection";
    JsonValue j = JsonValue::Object();
    j.Set("initial_theta", theta)
        .Set("final_theta", target)
        .Set("rounds", extend_rounds)
        .Set("total_samples_generated", drawn)
        .Set("regenerate_scheme_samples", regenerate_cost)
        .Set("seconds", seconds);
    std::printf(
        "store-growth: %lld -> %lld in %d rounds, drew %lld samples "
        "(regeneration would draw %lld)\n",
        static_cast<long long>(theta), static_cast<long long>(target),
        extend_rounds, static_cast<long long>(drawn),
        static_cast<long long>(regenerate_cost));
    result.Set("store_growth", std::move(j));
  }

  const std::string text = result.Dump(2);
  std::ofstream file(output);
  file << text << "\n";
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", output.c_str());
    return 1;
  }
  std::printf("wrote %s\n", output.c_str());
  return 0;
}
