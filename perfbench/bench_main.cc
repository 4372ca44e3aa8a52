// oipa_perfbench: the repository benchmark program. One run executes one
// workload against the library's public entry points (cold-plan,
// search) or against a live oipa_serve daemon over TCP (serve-mix, also
// run inside search's traced runs), checks the outputs, and prints one
// JSON result line. See
// perfbench/README.md for the workloads, metrics and predictions, and
// perfbench/run.py for the command that builds and runs it.
//
//   oipa_perfbench --workload=search --seed=1 --seconds=30 --trace=0
//                  --limits=serve-mix=100
//                  --serve_bin=<path to oipa_serve> --out_dir=<dir>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/json_writer.h"
#include "data/datasets.h"
#include "oipa/api/planning_context.h"
#include "oipa/api/solver_registry.h"
#include "perfbench/bench_logic.h"
#include "perfbench/trace.h"
#include "rrset/mrr_collection.h"
#include "serve/json_parser.h"
#include "serve/wire.h"
#include "topic/campaign.h"
#include "topic/influence_graph.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/random.h"

namespace perfbench {
namespace {

using oipa::JsonValue;

double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

void SleepUntil(double t) {
  const double wait = t - NowS();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

// ------------------------------------------------------------ metrics

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every run prints with --trace=0; BENCHMARK.json
// declares the same list (run.py checks the two agree).
const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"plan_ms_p50", "ms"},
      {"plan_ms_tail", "ms"},
      {"plans_per_s", "1/s"},
      {"ok_ratio", "ratio"},
      {"holdout_utility_mean", "users"},
      {"cpu_s_per_plan", "s"},
      {"peak_rss_mb", "MiB"},
  };
  return kSpecs;
}

// The per-layer metrics every run prints with --trace=1. A layer a
// workload does not exercise reads 0 there (see README.md for which
// layer each workload exercises).
const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> kSpecs = {
      {"data.build_s", "s"},
      {"topic.collapse_ms", "ms"},
      {"rrset.generate_ms", "ms"},
      {"rrset.holdout_generate_ms", "ms"},
      {"rrset.samples_per_s", "1/s"},
      {"rrset.bytes_per_sample", "B"},
      {"rrset.extend_ms", "ms"},
      {"api.context_ms", "ms"},
      {"oipa.solve_ms.bab", "ms"},
      {"oipa.solve_ms.bab-p", "ms"},
      {"oipa.nodes_per_solve", "count"},
      {"oipa.bound_calls_per_node", "count"},
      {"oipa.tau_evals_per_node", "count"},
      {"oipa.tau_evals_per_s", "1/s"},
      {"oipa.converged_ratio", "ratio"},
      {"oipa.par_solve_ms", "ms"},
      {"oipa.par_node_inflation", "ratio"},
      {"im.solve_ms.im", "ms"},
      {"im.solve_ms.tim", "ms"},
      {"im.solve_ms.degree-discount", "ms"},
      {"api.holdout_eval_ms", "ms"},
      {"cli.encode_us", "us"},
      {"serve.parse_us", "us"},
      {"serve.overhead_ms_p50", "ms"},
      {"serve.hit_ms_p50", "ms"},
      {"serve.miss_ms_p50", "ms"},
      {"serve.batched_ms_p50", "ms"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.batch_size_mean", "count"},
      {"serve.samples_generated", "count"},
      {"serve.rejected_ratio", "ratio"},
      {"serve.generator_lag_ms", "ms"},
      {"serve.warmup.sent", "count"},
      {"serve.warmup.ok", "count"},
      {"serve.warmup.failed", "count"},
      {"serve.warmup.refused", "count"},
      {"serve.fixed.sent", "count"},
      {"serve.fixed.ok", "count"},
      {"serve.fixed.failed", "count"},
      {"serve.fixed.refused", "count"},
      {"serve.closed.sent", "count"},
      {"serve.closed.ok", "count"},
      {"serve.closed.failed", "count"},
      {"serve.closed.refused", "count"},
      {"serve.ladder.sent", "count"},
      {"serve.ladder.ok", "count"},
      {"serve.ladder.failed", "count"},
      {"serve.ladder.refused", "count"},
      {"serve.probe.sent", "count"},
      {"serve.probe.ok", "count"},
      {"serve.probe.failed", "count"},
      {"serve.probe.refused", "count"},
      {"serve.overhead_share", "ratio"},
      {"serve_max_rps", "1/s"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kSpecs;
}

/// Everything one run reports.
struct Report {
  std::map<std::string, double> values;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;

  void Set(const std::string& name, double value) { values[name] = value; }

  /// Marks the run incorrect.
  void Fail(const std::string& message) {
    if (correct) std::cerr << "[perfbench] CHECK FAILED: " << message << "\n";
    correct = false;
  }
};

/// Prints the one-line result: the end-to-end or the per-layer metrics.
void PrintResult(const Report& report, bool trace) {
  JsonValue metrics = JsonValue::Object();
  bool correct = report.correct;
  for (const MetricSpec& spec : trace ? PerLayerSpecs() : EndToEndSpecs()) {
    if (!ValidMetricName(spec.name)) {
      std::cerr << "[perfbench] invalid metric name " << spec.name << "\n";
      correct = false;
    }
    const auto it = report.values.find(spec.name);
    double value = it == report.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    if (!trace && value == 0.0) {
      std::cerr << "[perfbench] end-to-end metric " << spec.name
                << " was not measured\n";
      correct = false;
    }
    JsonValue entry = JsonValue::Object();
    entry.Set("value", value).Set("unit", spec.unit);
    metrics.Set(spec.name, std::move(entry));
  }
  JsonValue result = JsonValue::Object();
  result.Set("correct", correct)
      .Set("attempted", report.attempted)
      .Set("failed", report.failed)
      .Set("metrics", std::move(metrics));
  // %.10g keeps every digit a timer can resolve at these magnitudes.
  std::cout << result.Dump(-1) << std::endl;
}

// ------------------------------------------------------- process stats

/// utime + stime of `pid` in seconds (all threads, live and exited).
double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double utime = 0;
  double stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double SelfCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

/// VmHWM (peak resident set) of `pid` in MiB.
double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

// ------------------------------------------------------------- tracing

/// Durations (ms) of every recorded span named `name`.
std::vector<double> SpanMs(const Tracer& tracer, const std::string& name) {
  std::vector<double> out;
  for (const Span& span : tracer.spans()) {
    if (span.name == name) out.push_back((span.end_ns - span.start_ns) * 1e-6);
  }
  return out;
}

double SumOf(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

double MeanOf(const std::vector<double>& values) {
  return values.empty() ? 0.0 : SumOf(values) / values.size();
}

/// Prints the per-layer self-time table of the traced operations (the
/// spans under an "op" root; set-up, probe and check spans stay out of
/// it) and writes every span to `path`. The table's total is the mean
/// traced operation latency, to set beside the medians in `note`.
void WriteTrace(const Tracer& tracer, const std::string& path, int64_t ops,
                const std::string& note) {
  std::vector<Span> op_spans;
  std::vector<int64_t> remap(tracer.spans().size(), -1);
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    Span span = tracer.spans()[i];
    if (span.op < 0) continue;
    if (span.parent >= 0) span.parent = remap[span.parent];
    remap[i] = static_cast<int64_t>(op_spans.size());
    op_spans.push_back(std::move(span));
  }
  std::map<std::string, int64_t> calls;
  for (const Span& span : op_spans) ++calls[span.name];
  int64_t total_ns = 0;
  std::fprintf(stderr,
               "[perfbench] self time per layer over %lld traced operations "
               "(%s):\n",
               static_cast<long long>(ops), note.c_str());
  std::fprintf(stderr, "  %-28s %8s %12s %10s\n", "span", "calls", "self_ms",
               "ms/op");
  for (const auto& [name, ns] : SelfTimes(op_spans)) {
    total_ns += ns;
    std::fprintf(stderr, "  %-28s %8lld %12.3f %10.4f\n", name.c_str(),
                 static_cast<long long>(calls[name]), ns * 1e-6,
                 ops > 0 ? ns * 1e-6 / ops : 0.0);
  }
  std::fprintf(stderr, "  %-28s %8s %12.3f %10.4f\n", "total", "",
               total_ns * 1e-6, ops > 0 ? total_ns * 1e-6 / ops : 0.0);
  std::ofstream out(path);
  if (!out) {
    std::cerr << "[perfbench] cannot write trace to " << path << "\n";
    return;
  }
  out << "[";
  for (size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    JsonValue j = JsonValue::Object();
    j.Set("name", s.name)
        .Set("start_ns", s.start_ns)
        .Set("end_ns", s.end_ns)
        .Set("parent", s.parent)
        .Set("op", s.op);
    out << (i == 0 ? "\n" : ",\n") << j.Dump(-1);
  }
  out << "\n]\n";
}

// --------------------------------------------------------- shared parts

constexpr double kAlpha = 2.0;
constexpr double kBeta = 1.0;
constexpr int kEll = 3;
constexpr int kSamplingThreads = 2;

/// A planning context built the way a daemon cache miss and `oipa_cli
/// plan` build one: one PlanningContext::Borrow call, here with a
/// private store, so piece collapse and in-sample and holdout sampling
/// all run inside it.
std::shared_ptr<const oipa::PlanningContext> MakeContext(
    const oipa::Graph& graph, const oipa::EdgeTopicProbs& probs,
    const oipa::Campaign& campaign, int64_t theta, uint64_t sample_seed,
    Tracer* tracer, int64_t op) {
  oipa::ContextOptions options;
  options.theta = theta;
  options.holdout_theta = -1;
  options.seed = sample_seed;
  options.sampling_threads = kSamplingThreads;
  options.share_samples = false;
  ScopedSpan span(tracer, "api.context", op);
  auto context = oipa::PlanningContext::Borrow(
      graph, probs, campaign, oipa::LogisticAdoptionModel(kAlpha, kBeta),
      options);
  OIPA_CHECK(context.ok()) << context.status().ToString();
  return std::move(*context);
}

/// Times the layers PlanningContext::Borrow runs inside it (piece
/// collapse, in-sample and holdout MRR generation) by calling each on the
/// inputs of one operation, outside that operation's timing. The context
/// cannot adopt pieces collapsed by its caller, so timing these layers
/// inside the operation would collapse the pieces twice. Returns the
/// in-sample collection, so the caller can check it matches the
/// context's.
oipa::MrrCollection ProbeContextLayers(const oipa::Graph& graph,
                                       const oipa::EdgeTopicProbs& probs,
                                       const oipa::Campaign& campaign,
                                       int64_t theta, uint64_t sample_seed,
                                       Tracer* tracer) {
  std::vector<oipa::InfluenceGraph> pieces;
  {
    ScopedSpan span(tracer, "topic.collapse", -1);
    pieces = oipa::BuildPieceGraphs(graph, probs, campaign);
  }
  std::optional<oipa::MrrCollection> mrr;
  {
    ScopedSpan span(tracer, "rrset.generate", -1);
    mrr.emplace(oipa::MrrCollection::Generate(
        pieces, theta, sample_seed, oipa::DiffusionModel::kIndependentCascade,
        kSamplingThreads));
  }
  {
    // The store's holdout seed is private to it; any other seed draws
    // the same number of samples from the same pieces.
    ScopedSpan span(tracer, "rrset.holdout_generate", -1);
    oipa::MrrCollection::Generate(pieces, theta, DeriveSeed(sample_seed, 99),
                                  oipa::DiffusionModel::kIndependentCascade,
                                  kSamplingThreads);
  }
  return std::move(*mrr);
}

const char* SolveSpanName(const std::string& method) {
  if (method == "bab") return "oipa.solve.bab";
  if (method == "bab-p") return "oipa.solve.bab-p";
  if (method == "im") return "im.solve.im";
  if (method == "tim") return "im.solve.tim";
  return "im.solve.degree-discount";
}

bool IsBabFamily(const std::string& method) {
  return method == "bab" || method == "bab-p";
}

/// What one in-process operation produced.
struct OpOutcome {
  bool ok = false;
  double holdout = 0.0;
  oipa::PlanResponse response;
};

/// Solve + holdout evaluation + JSON encode of one request, with spans.
/// The checks every BAB-family plan must pass are applied here.
OpOutcome SolveAndEncode(const oipa::PlanningContext& context,
                         const oipa::PlanRequest& request, Tracer* tracer,
                         int64_t op, Report* report) {
  OpOutcome outcome;
  oipa::StatusOr<oipa::PlanResponse> response = oipa::Status::Ok();
  {
    ScopedSpan span(tracer, SolveSpanName(request.solver), op);
    response = oipa::Solve(context, request);
  }
  if (!response.ok()) {
    report->Fail("solve failed: " + response.status().ToString());
    return outcome;
  }
  double holdout = 0.0;
  {
    ScopedSpan span(tracer, "api.holdout_eval", op);
    holdout = context.EstimateHoldoutUtility(response->plan);
  }
  std::string encoded;
  {
    ScopedSpan span(tracer, "cli.encode", op);
    encoded = oipa::serve::ResultJson(*response).Dump(-1);
  }
  const int budget = request.budgets.front();
  const auto check = [&](bool holds, const std::string& what) {
    if (holds) return;
    report->Fail(request.solver + " k=" + std::to_string(budget) + ": " +
                 what);
    outcome.ok = false;
  };
  outcome.ok = true;
  check(holdout == response->holdout_utility,
        "holdout estimate differs from the solve's");
  check(response->plan.size() <= budget && !encoded.empty(),
        "plan exceeds its budget");
  check(!IsBabFamily(request.solver) || response->converged,
        "did not converge");
  outcome.holdout = holdout;
  outcome.response = std::move(*response);
  return outcome;
}

/// Counters of the solves a run made, for the oipa.* per-layer metrics.
struct SolveTally {
  int64_t bab_solves = 0;
  int64_t bab_converged = 0;
  int64_t nodes = 0;
  int64_t roots_and_nodes = 0;
  int64_t bound_calls = 0;
  int64_t tau_evals = 0;
  double bab_seconds = 0.0;

  void Add(const oipa::PlanResponse& r) {
    if (!IsBabFamily(r.solver)) return;
    ++bab_solves;
    bab_converged += r.converged ? 1 : 0;
    nodes += r.nodes_expanded;
    // Per search node, the root included: a solve that converges at
    // the root expands no node but still evaluates bounds there.
    roots_and_nodes += r.nodes_expanded + 1;
    bound_calls += r.bound_calls;
    tau_evals += r.tau_evals;
    bab_seconds += r.seconds;
  }

  void Publish(Report* report) const {
    if (bab_solves == 0) return;
    report->Set("oipa.nodes_per_solve",
                static_cast<double>(nodes) / bab_solves);
    report->Set("oipa.bound_calls_per_node",
                static_cast<double>(bound_calls) / roots_and_nodes);
    report->Set("oipa.tau_evals_per_node",
                static_cast<double>(tau_evals) / roots_and_nodes);
    report->Set("oipa.tau_evals_per_s",
                bab_seconds > 0 ? tau_evals / bab_seconds : 0.0);
    report->Set("oipa.converged_ratio",
                static_cast<double>(bab_converged) / bab_solves);
  }
};

/// Reports the per-layer medians of the in-process spans.
void ReportLayerSpans(const Tracer& tracer, Report* report) {
  report->Set("data.build_s", Median(SpanMs(tracer, "data.build")) * 1e-3);
  report->Set("topic.collapse_ms", Median(SpanMs(tracer, "topic.collapse")));
  report->Set("rrset.generate_ms", Median(SpanMs(tracer, "rrset.generate")));
  report->Set("rrset.holdout_generate_ms",
              Median(SpanMs(tracer, "rrset.holdout_generate")));
  report->Set("rrset.extend_ms", Median(SpanMs(tracer, "rrset.extend")));
  report->Set("api.context_ms", Median(SpanMs(tracer, "api.context")));
  report->Set("oipa.solve_ms.bab", Median(SpanMs(tracer, "oipa.solve.bab")));
  report->Set("oipa.solve_ms.bab-p",
              Median(SpanMs(tracer, "oipa.solve.bab-p")));
  report->Set("im.solve_ms.im", Median(SpanMs(tracer, "im.solve.im")));
  report->Set("im.solve_ms.tim", Median(SpanMs(tracer, "im.solve.tim")));
  report->Set("im.solve_ms.degree-discount",
              Median(SpanMs(tracer, "im.solve.degree-discount")));
  report->Set("api.holdout_eval_ms",
              Median(SpanMs(tracer, "api.holdout_eval")));
  report->Set("cli.encode_us", Median(SpanMs(tracer, "cli.encode")) * 1e3);
}

// ------------------------------------------------- in-process workloads

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  double limit_ms = 0;
  std::string serve_bin;
  std::string out_dir = ".";
};

/// Closed-loop results of one operation list, with per-chunk rates: the
/// host's speed drifts on a scale of seconds, so throughput is the
/// median over chunks of the list rather than one whole-run ratio.
struct ClosedLoop {
  std::vector<double> latency_ms;
  std::vector<double> chunk_plans_per_s;
  std::vector<double> chunk_cpu_per_plan;
  double holdout_sum = 0;
  int64_t ok = 0;
};

void ReportClosedLoop(const ClosedLoop& loop, Report* report) {
  const int64_t n = static_cast<int64_t>(loop.latency_ms.size());
  const Tail tail = TailOf(loop.latency_ms);
  report->Set("plan_ms_p50", Median(loop.latency_ms));
  report->Set("plan_ms_tail", tail.value);
  report->Set("plans_per_s", Median(loop.chunk_plans_per_s));
  report->Set("ok_ratio", static_cast<double>(loop.ok) / n);
  report->Set("holdout_utility_mean",
              loop.ok > 0 ? loop.holdout_sum / loop.ok : 0.0);
  report->Set("cpu_s_per_plan", Median(loop.chunk_cpu_per_plan));
  std::fprintf(stderr,
               "[perfbench] closed loop: %lld ops in %zu chunks, p50 %.3f "
               "ms, tail p%.1f of %lld = %.3f ms\n",
               static_cast<long long>(n), loop.chunk_plans_per_s.size(),
               Median(loop.latency_ms), tail.percentile,
               static_cast<long long>(tail.samples), tail.value);
  report->attempted += n;
  report->failed += n - loop.ok;
}

/// How an in-process workload is sized: `setup_reps` set-ups, then
/// `ops` closed-loop operations, a whole number of `chunk`s.
struct InProcessPlan {
  int setup_reps = 5;
  int64_t ops = 0;
  int64_t chunk = 0;
};

/// The in-process part every in-process workload shares: `setup` runs
/// `setup_reps` times (the last one is kept), then untraced runs execute
/// the operations through `run_op` in a closed loop with one caller,
/// and traced runs execute each of a quarter of them twice, once traced
/// and once not, calling `probe(i)` after each traced execution.
void RunInProcess(const Options& options, const InProcessPlan& plan,
                  Tracer* tracer, const std::function<void(Tracer*)>& setup,
                  const std::function<OpOutcome(int64_t, Tracer*)>& run_op,
                  const std::function<void(int64_t)>& probe, Report* report) {
  std::vector<double> setup_s;
  for (int rep = 0; rep < plan.setup_reps; ++rep) {
    // Only the last set-up is traced, so data.build_s reads one build.
    tracer->set_active(rep == plan.setup_reps - 1);
    const double t0 = NowS();
    setup(tracer);
    setup_s.push_back(NowS() - t0);
  }
  report->Set("setup_s", Median(setup_s));
  std::fprintf(stderr, "[perfbench] setup: median %.3f s of %d\n",
               Median(setup_s), plan.setup_reps);

  if (!options.trace) {
    tracer->set_active(false);
    ClosedLoop loop;
    for (int64_t begin = 0; begin < plan.ops; begin += plan.chunk) {
      const double cpu0 = SelfCpuSeconds();
      const double t0 = NowS();
      int64_t ok = 0;
      for (int64_t i = begin; i < begin + plan.chunk; ++i) {
        const double a = NowS();
        const OpOutcome outcome = run_op(i, tracer);
        loop.latency_ms.push_back((NowS() - a) * 1e3);
        ok += outcome.ok ? 1 : 0;
        loop.holdout_sum += outcome.ok ? outcome.holdout : 0.0;
      }
      loop.ok += ok;
      loop.chunk_plans_per_s.push_back(ok / (NowS() - t0));
      loop.chunk_cpu_per_plan.push_back(
          ok > 0 ? (SelfCpuSeconds() - cpu0) / ok : 0.0);
    }
    ReportClosedLoop(loop, report);
    report->Set("peak_rss_mb", PeakRssMb(getpid()));
    return;
  }

  // Traced run: a quarter of the operations, each executed twice, traced
  // first on odd operations so that warm-cache effects cancel.
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  const int64_t pairs = std::max<int64_t>(2, plan.ops / 4);
  for (int64_t i = 0; i < pairs; ++i) {
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == (i % 2 == 1);
      tracer->set_active(traced);
      const double a = NowS();
      const int64_t root = tracer->Begin("op", i);
      const OpOutcome outcome = run_op(i, tracer);
      tracer->End(root);
      (traced ? traced_ms : untraced_ms).push_back((NowS() - a) * 1e3);
      report->attempted += 1;
      report->failed += outcome.ok ? 0 : 1;
      if (traced && probe) probe(i);
    }
  }
  tracer->set_active(false);
  report->Set("trace.overhead_ratio", Median(traced_ms) / Median(untraced_ms));
  ReportLayerSpans(*tracer, report);
  WriteTrace(*tracer,
             options.out_dir + "/trace-" + options.workload + "-seed" +
                 std::to_string(options.seed) + ".json",
             pairs,
             "p50 traced " + std::to_string(Median(traced_ms)) +
                 " ms, untraced " + std::to_string(Median(untraced_ms)) +
                 " ms");
}

// cold-plan: everything a daemon cache miss pays, minus the dataset: a
// fresh campaign, a new context (piece collapse, in-sample and holdout
// sampling), one sequential bab-p solve, holdout evaluation and JSON
// encode.
void RunColdPlan(const Options& options, Tracer* tracer, Report* report) {
  constexpr double kDblpScale = 0.1;
  constexpr int64_t kTheta = 20'000;
  constexpr int kBudget = 20;
  // The graph is fixed; the seed drives the campaigns and the sampling.
  constexpr uint64_t kDatasetSeed = 11;
  // Nominal operation cost on the reference host; fixes the list
  // length (and with it the tail rank) from --seconds: four fifths of
  // the run are the closed loop, in chunks of three topic blocks.
  constexpr double kNominalOpS = 0.10;
  constexpr int64_t kChunk = 9;
  InProcessPlan plan;
  plan.chunk = kChunk;
  plan.ops = kChunk * std::max<int64_t>(
                          2, std::llround(options.seconds * 0.8 /
                                          kNominalOpS / kChunk));
  const int64_t n = plan.ops;

  std::unique_ptr<oipa::Dataset> dataset;
  std::vector<ColdPlanOp> ops;
  const auto setup = [&](Tracer* t) {
    {
      ScopedSpan span(t, "data.build", -1);
      dataset = std::make_unique<oipa::Dataset>(
          oipa::MakeDblpLike(kDblpScale, kDatasetSeed));
    }
    ops = MakeColdPlanOps(options.seed, static_cast<int>(n),
                          dataset->num_topics);
  };
  const auto campaign_of = [&](const ColdPlanOp& op) {
    std::vector<oipa::ViralPiece> pieces;
    for (int j = 0; j < kEll; ++j) {
      oipa::TopicVector topics(dataset->num_topics);
      topics[op.topics[j]] = 1.0;
      pieces.push_back({"piece" + std::to_string(j), std::move(topics)});
    }
    return oipa::Campaign(std::move(pieces));
  };
  // Filled by traced executions and probes only, which run on this thread.
  SolveTally tally;
  int64_t context_bytes = 0;
  int64_t probe_bytes = 0;
  int64_t samples = 0;
  const auto run_op = [&](int64_t i, Tracer* t) {
    const ColdPlanOp& op = ops[i];
    const oipa::Campaign campaign = campaign_of(op);
    const std::shared_ptr<const oipa::PlanningContext> context =
        MakeContext(*dataset->graph, *dataset->probs, campaign, kTheta,
                    op.sample_seed, t, i);
    oipa::PlanRequest request;
    request.solver = "bab-p";
    request.pool = dataset->promoter_pool;
    request.budgets = {kBudget};
    OpOutcome outcome = SolveAndEncode(*context, request, t, i, report);
    if (t->recording()) {
      tally.Add(outcome.response);
      const oipa::SampleSnapshot snap = context->samples();
      context_bytes += snap.mrr->MemoryBytes();
      samples += snap.mrr->theta();
    }
    return outcome;
  };
  const auto probe = [&](int64_t i) {
    const oipa::MrrCollection mrr =
        ProbeContextLayers(*dataset->graph, *dataset->probs,
                           campaign_of(ops[i]), kTheta, ops[i].sample_seed,
                           tracer);
    probe_bytes += mrr.MemoryBytes();
  };
  RunInProcess(options, plan, tracer, setup, run_op, probe, report);
  if (!options.trace) return;
  if (probe_bytes != context_bytes) {
    report->Fail("probed in-sample collections differ from the contexts'");
  }
  tally.Publish(report);
  report->Set("rrset.bytes_per_sample",
              samples > 0 ? static_cast<double>(context_bytes) / samples : 0.0);
  const std::vector<double> collapse = SpanMs(*tracer, "topic.collapse");
  const std::vector<double> generate = SpanMs(*tracer, "rrset.generate");
  const std::vector<double> holdout =
      SpanMs(*tracer, "rrset.holdout_generate");
  const double gen_s = 1e-3 * (SumOf(generate) + SumOf(holdout));
  report->Set("rrset.samples_per_s", gen_s > 0 ? 2 * samples / gen_s : 0.0);
  // api.context holds three layers the library runs inside it; split it
  // by the probes' medians.
  const double context_ms = Median(SpanMs(*tracer, "api.context"));
  std::fprintf(stderr,
               "[perfbench] api.context %.3f ms = topic.collapse %.3f + "
               "rrset.generate %.3f + rrset.holdout_generate %.3f + rest "
               "%.3f (medians of %zu probes on the same inputs)\n",
               context_ms, Median(collapse), Median(generate),
               Median(holdout),
               context_ms - Median(collapse) - Median(generate) -
                   Median(holdout),
               collapse.size());
}

// search: warm solves on one shared lastfm context; the solver does all
// the work and sampling none (im and tim regenerate their own RR sets).
void RunSearch(const Options& options, Tracer* tracer, Report* report) {
  constexpr int64_t kTheta = 100'000;
  constexpr uint64_t kDatasetSeed = 7;
  // One block of SearchClasses() costs about 1.2 s on the reference
  // host; the list is whole blocks so every class keeps its share. At 30
  // seconds that is 20 blocks: 20 bab k=40 solves, so the tail (10
  // samples beyond) is the middle one of them rather than the boundary
  // between the bab k=40 and bab k=20 classes.
  int64_t per_block = 0;
  for (const SearchClass& c : SearchClasses()) per_block += c.per_block;
  InProcessPlan plan;
  plan.chunk = per_block;
  plan.ops = per_block *
             std::max<int64_t>(2, std::llround(options.seconds * 0.8 / 1.2));

  std::unique_ptr<oipa::Dataset> dataset;
  std::unique_ptr<oipa::Campaign> campaign;
  std::shared_ptr<const oipa::PlanningContext> context;
  const auto setup = [&](Tracer* t) {
    context.reset();
    {
      ScopedSpan span(t, "data.build", -1);
      dataset = std::make_unique<oipa::Dataset>(
          oipa::MakeDatasetByName("lastfm", 1.0, kDatasetSeed));
    }
    // The daemon's and the CLI's campaign derivation for this seed.
    oipa::Rng rng(kDatasetSeed + 4);
    campaign = std::make_unique<oipa::Campaign>(
        oipa::Campaign::SampleUniformPieces(kEll, dataset->num_topics, &rng));
    context = MakeContext(*dataset->graph, *dataset->probs, *campaign, kTheta,
                          1, t, -1);
  };
  const std::vector<SearchOp> ops =
      MakeSearchOps(options.seed, static_cast<int>(plan.ops));
  // First response per class: every repeat must match it bit for bit.
  std::map<std::string, oipa::PlanResponse> first;
  SolveTally tally;
  const auto run_op = [&](int64_t i, Tracer* t) {
    const SearchOp& op = ops[i];
    oipa::PlanRequest request;
    request.solver = op.method;
    request.pool = dataset->promoter_pool;
    request.budgets = {op.k};
    OpOutcome outcome = SolveAndEncode(*context, request, t, i, report);
    if (!outcome.ok) return outcome;
    const oipa::PlanResponse& r = outcome.response;
    const std::string key = op.method + "/" + std::to_string(op.k);
    if (t->recording()) tally.Add(r);
    const auto [it, inserted] = first.emplace(key, r);
    const oipa::PlanResponse& f = it->second;
    if (!inserted &&
        (f.plan.Assignments() != r.plan.Assignments() ||
         std::memcmp(&f.utility, &r.utility, sizeof(double)) != 0 ||
         std::memcmp(&f.holdout_utility, &r.holdout_utility,
                     sizeof(double)) != 0 ||
         f.nodes_expanded != r.nodes_expanded ||
         f.bound_calls != r.bound_calls || f.tau_evals != r.tau_evals)) {
      report->Fail(key + " did not repeat its plan and counts bit for bit");
      outcome.ok = false;
    }
    return outcome;
  };
  RunInProcess(options, plan, tracer, setup, run_op, nullptr, report);
  if (!options.trace) return;
  tally.Publish(report);
  const oipa::SampleSnapshot snap = context->samples();
  report->Set("rrset.bytes_per_sample",
              static_cast<double>(snap.mrr->MemoryBytes()) /
                  snap.mrr->theta());
}

// ------------------------------------------------------------ serve-mix

/// The oipa_serve child process. Killed with the bench if the bench
/// dies (PR_SET_PDEATHSIG); stopped with SIGTERM otherwise.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const std::string& binary, int workers) {
    int out[2] = {-1, -1};
    if (pipe(out) != 0) return false;
    const std::string workers_flag = "--workers=" + std::to_string(workers);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      dup2(out[1], STDOUT_FILENO);
      close(out[0]);
      close(out[1]);
      const char* argv[] = {binary.c_str(),
                            "--port=0",
                            workers_flag.c_str(),
                            "--max_contexts=64",
                            nullptr};
      execv(binary.c_str(), const_cast<char* const*>(argv));
      _exit(127);
    }
    close(out[1]);
    stdout_fd_ = out[0];
    // The daemon announces "oipa_serve listening on host:port".
    std::string line;
    const double deadline = NowS() + 20.0;
    while (line.find('\n') == std::string::npos && NowS() < deadline) {
      pollfd pfd{stdout_fd_, POLLIN, 0};
      if (poll(&pfd, 1, 200) <= 0) continue;
      char buf[256];
      const ssize_t got = read(stdout_fd_, buf, sizeof(buf));
      if (got <= 0) break;
      line.append(buf, static_cast<size_t>(got));
    }
    const size_t colon = line.rfind(':');
    if (line.find("listening") == std::string::npos ||
        colon == std::string::npos) {
      return false;
    }
    port_ = std::atoi(line.c_str() + colon + 1);
    return port_ > 0;
  }

  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      int status = 0;
      const double deadline = NowS() + 10.0;
      while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (NowS() > deadline) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (stdout_fd_ >= 0) close(stdout_fd_);
    stdout_fd_ = -1;
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  int port_ = 0;
};

/// The serve-mix rate ladder, climbed twice, the second climb offset by
/// half a step, with the rungs of both fitted together (MaxPassingRate).
/// Other phases run between the two climbs, so neighbouring rates are
/// measured seconds apart and a slow second of the host moves one point
/// of the fit rather than where the climb stops.
class Ladder {
 public:
  /// `run_rung(rate, r)` runs rung r at `rate`.
  Ladder(double limit_ms, int workers,
         std::function<Rung(double, int)> run_rung)
      : limit_ms_(limit_ms),
        workers_(workers),
        run_rung_(std::move(run_rung)) {}

  /// Climb 0 starts at kStart x base_rate, climb 1 half a step higher;
  /// each stops after two rungs in a row miss the limit.
  void Climb(int climb, double base_rate) {
    double rate = kStart * base_rate * (climb == 0 ? 1.0 : std::sqrt(kStep));
    int misses_in_a_row = 0;
    for (int r = 0; r < kMaxRungs && misses_in_a_row < 2;
         ++r, rate *= kStep) {
      const int index = static_cast<int>(rungs_.size());
      rungs_.push_back(run_rung_(rate, index));
      const Rung& rung = rungs_.back();
      const bool pass = RungPasses(rung, limit_ms_, workers_);
      std::fprintf(stderr,
                   "[perfbench] rung %d: %.2f/s sent %lld failed %lld tail "
                   "%.2f ms (p%.1f of %lld) backlog %+lld -> %s\n",
                   index, rate, static_cast<long long>(rung.sent),
                   static_cast<long long>(rung.failed), rung.tail.value,
                   rung.tail.percentile,
                   static_cast<long long>(rung.tail.samples),
                   static_cast<long long>(rung.backlog_growth),
                   pass ? "pass" : "fail");
      misses_in_a_row = pass ? 0 : misses_in_a_row + 1;
    }
  }

  double MaxRate() {
    std::sort(rungs_.begin(), rungs_.end(),
              [](const Rung& a, const Rung& b) { return a.rate < b.rate; });
    return MaxPassingRate(rungs_, limit_ms_, workers_);
  }

 private:
  static constexpr double kStart = 0.8;
  static constexpr double kStep = 1.2;
  static constexpr int kMaxRungs = 10;

  const double limit_ms_;
  const int workers_;
  const std::function<Rung(double, int)> run_rung_;
  std::vector<Rung> rungs_;
};

/// One request of a serve-mix phase as the load generator saw it.
struct Request {
  /// Unique over the run, so a late answer never matches a later phase.
  int64_t id = 0;
  ServeOp op;
  std::string line;
  double due = 0;
  double sent = 0;
  double done = 0;
  std::string response;
};

/// The load generator: `kConnections` TCP connections, the calling
/// thread sends, one receiver thread reads: at most as many threads and
/// connections as the host has CPUs (four).
class LoadGenerator {
 public:
  static constexpr int kConnections = 4;

  ~LoadGenerator() {
    for (int fd : fds_) close(fd);
  }

  bool Connect(int port) {
    for (int c = 0; c < kConnections; ++c) {
      const int fd = socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return false;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
        close(fd);
        return false;
      }
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      fds_.push_back(fd);
    }
    return true;
  }

  /// Sends every request of a phase. Open loop (callers == 0): request
  /// i is due at start + op.at_s and sent then; latency runs from the due
  /// time. Closed loop: `callers` callers, each sending its next request
  /// once its previous one was answered. Requests unanswered `grace_s`
  /// after the last send are left with done == 0 (failed).
  void Run(std::vector<Request>* requests, int callers, double grace_s,
           const std::function<void(int64_t)>& before_send = nullptr) {
    std::mutex mu;
    std::condition_variable cv;
    int64_t answered = 0;
    const int64_t total = static_cast<int64_t>(requests->size());
    const int64_t first_id = total > 0 ? requests->front().id : 0;
    std::atomic<bool> stop{false};
    std::thread receiver([&] {
      std::vector<std::string> partial(fds_.size());
      char buf[65536];
      while (!stop.load()) {
        std::vector<pollfd> pfds;
        for (int fd : fds_) pfds.push_back({fd, POLLIN, 0});
        if (poll(pfds.data(), pfds.size(), 20) <= 0) continue;
        for (size_t c = 0; c < fds_.size(); ++c) {
          if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
          const ssize_t got = read(fds_[c], buf, sizeof(buf));
          if (got <= 0) continue;
          // Acknowledge at once, like a peer with one request in flight:
          // with many requests pipelined on four connections, a delayed
          // ACK would hold back the daemon's next response on that
          // connection (Nagle), a stall no independent user would see.
          // Linux clears the flag as it goes, so it is set per read.
          const int one = 1;
          setsockopt(fds_[c], IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
          const double now = NowS();
          partial[c].append(buf, static_cast<size_t>(got));
          size_t newline;
          while ((newline = partial[c].find('\n')) != std::string::npos) {
            std::string line = partial[c].substr(0, newline);
            partial[c].erase(0, newline + 1);
            // Ids are consecutive numbers from the phase's first one.
            const size_t key = line.find("\"id\":\"");
            if (key == std::string::npos) continue;
            const int64_t index =
                std::atoll(line.c_str() + key + 6) - first_id;
            if (index < 0 || index >= total) continue;
            Request& r = (*requests)[index];
            if (r.done != 0) continue;
            r.response = std::move(line);
            std::lock_guard<std::mutex> lock(mu);
            r.done = now;
            ++answered;
            cv.notify_all();
          }
        }
      }
    });
    const double start = NowS() + 0.005;
    for (int64_t i = 0; i < total; ++i) {
      Request& r = (*requests)[i];
      if (callers > 0) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait_for(lock, std::chrono::seconds(30),
                    [&] { return answered >= i - (callers - 1); });
        r.due = NowS();
      } else {
        r.due = start + r.op.at_s;
        SleepUntil(r.due);
      }
      if (before_send) before_send(i);
      r.sent = NowS();
      const std::string line = r.line + "\n";
      const int fd = fds_[static_cast<size_t>(i) % fds_.size()];
      size_t off = 0;
      while (off < line.size()) {
        const ssize_t put = send(fd, line.data() + off, line.size() - off,
                                 MSG_NOSIGNAL);
        if (put <= 0) break;
        off += static_cast<size_t>(put);
      }
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::duration<double>(grace_s),
                  [&] { return answered >= total; });
    }
    stop.store(true);
    receiver.join();
  }

 private:
  std::vector<int> fds_;
};

constexpr int64_t kServeTheta = 50'000;
constexpr int kWarmContexts = 16;
constexpr uint64_t kWarmDatasetSeed = 101;
constexpr uint64_t kRaiseDatasetSeed = 100;
constexpr int64_t kRaiseStep = 2'000;
// Daemon requests sample on their worker thread alone: two workers
// running two-thread solves already fill the host's four CPUs.
constexpr int kServeSamplingThreads = 1;

uint64_t DatasetSeedOf(const ServeOp& op) {
  switch (op.kind) {
    case ServeKind::kRaise:
      return kRaiseDatasetSeed;
    case ServeKind::kMiss:
      // Never a warm context's seed, so a miss in every run (the daemon
      // starts empty); the same list on every seed, so the misses cost
      // the same whatever the seed.
      return 1000 + op.context;
    default:
      return kWarmDatasetSeed + op.context;
  }
}

int64_t ThetaOf(const ServeOp& op) {
  return op.kind == ServeKind::kRaise
             ? kServeTheta + kRaiseStep * (op.context + 1)
             : kServeTheta;
}

std::string MethodOf(const ServeOp& op) {
  return op.kind == ServeKind::kHeuristic ? "degree-discount" : "bab-p";
}

std::string RequestLine(const ServeOp& op, int64_t id) {
  JsonValue dataset = JsonValue::Object();
  dataset.Set("name", "lastfm")
      .Set("seed", static_cast<int64_t>(DatasetSeedOf(op)))
      .Set("ell", kEll)
      .Set("alpha", kAlpha)
      .Set("beta", kBeta);
  JsonValue sampling = JsonValue::Object();
  sampling.Set("theta", ThetaOf(op))
      .Set("holdout_theta", ThetaOf(op))
      .Set("seed", 1)
      .Set("threads", kServeSamplingThreads);
  JsonValue budgets = JsonValue::Array();
  budgets.Append(op.k);
  JsonValue plan = JsonValue::Object();
  plan.Set("method", MethodOf(op))
      .Set("budgets", std::move(budgets))
      .Set("threads", op.kind == ServeKind::kParallel ? 2 : 1);
  JsonValue request = JsonValue::Object();
  request.Set("id", std::to_string(id))
      .Set("dataset", std::move(dataset))
      .Set("sampling", std::move(sampling))
      .Set("plan", std::move(plan));
  return request.Dump(-1);
}

/// Requests for `ops` with ids continuing from *next_id.
std::vector<Request> MakeRequests(const std::vector<ServeOp>& ops,
                                  int64_t* next_id) {
  std::vector<Request> requests(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    requests[i].id = (*next_id)++;
    requests[i].op = ops[i];
    requests[i].line = RequestLine(ops[i], requests[i].id);
  }
  return requests;
}

/// A parsed daemon answer. A success line missing any field the bench
/// reads counts as failed, like any other malformed answer.
struct Answer {
  bool ok = false;
  bool refused = false;
  JsonValue row;  // results[0]
  double solve_s = 0;
  bool converged = false;
  int64_t pieces = 0;
  double holdout_utility = 0;
  int64_t theta_used = 0;
  int64_t nodes = 0;
  bool cache_hit = false;
  int64_t batch_size = 0;
  /// Samples the daemon's process generated while it served this
  /// request's batch (all workers count into one counter).
  int64_t samples_generated = 0;
};

Answer ParseAnswer(const Request& r) {
  Answer a;
  if (r.done == 0) return a;
  auto parsed = oipa::serve::ParseJson(r.response);
  if (!parsed.ok() || !parsed->is_object()) return a;
  const JsonValue* ok = parsed->Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->bool_value()) {
    const JsonValue* error = parsed->Find("error");
    const JsonValue* code =
        error == nullptr || !error->is_object() ? nullptr : error->Find("code");
    a.refused = code != nullptr && code->is_string() &&
                code->string_value() == "resource_exhausted";
    return a;
  }
  const JsonValue* results = parsed->Find("results");
  const JsonValue* serve = parsed->Find("serve");
  if (results == nullptr || !results->is_array() || results->size() != 1 ||
      !results->at(0).is_object() || serve == nullptr || !serve->is_object()) {
    return a;
  }
  a.row = results->at(0);
  const auto number = [](const JsonValue* object, const char* key,
                         double* out) {
    const JsonValue* v = object->Find(key);
    if (v == nullptr || !v->is_number()) return false;
    *out = v->double_value();
    return true;
  };
  const auto flag = [](const JsonValue* object, const char* key, bool* out) {
    const JsonValue* v = object->Find(key);
    if (v == nullptr || !v->is_bool()) return false;
    *out = v->bool_value();
    return true;
  };
  const JsonValue* seed_sets = a.row.Find("seed_sets");
  double theta_used = 0, nodes = 0, batch = 0, generated = 0;
  if (seed_sets == nullptr || !seed_sets->is_array() ||
      !number(&a.row, "solve_seconds", &a.solve_s) ||
      !flag(&a.row, "converged", &a.converged) ||
      !number(&a.row, "holdout_utility", &a.holdout_utility) ||
      !number(&a.row, "theta_used", &theta_used) ||
      !number(&a.row, "nodes_expanded", &nodes) ||
      !flag(serve, "cache_hit", &a.cache_hit) ||
      !number(serve, "batch_size", &batch) ||
      !number(serve, "samples_generated", &generated)) {
    return a;
  }
  a.pieces = static_cast<int64_t>(seed_sets->size());
  a.theta_used = static_cast<int64_t>(theta_used);
  a.nodes = static_cast<int64_t>(nodes);
  a.batch_size = static_cast<int64_t>(batch);
  a.samples_generated = static_cast<int64_t>(generated);
  a.ok = true;
  return a;
}

/// The result row without its wall-clock field, for bit-identity checks.
std::string RowWithoutTime(const JsonValue& row) {
  JsonValue copy = JsonValue::Object();
  for (const auto& [key, value] : row.members()) {
    if (key != "solve_seconds") copy.Set(key, value);
  }
  return copy.Dump(-1);
}

struct PhaseCounts {
  int64_t sent = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t refused = 0;

  void Add(const PhaseCounts& other) {
    sent += other.sent;
    ok += other.ok;
    failed += other.failed;
    refused += other.refused;
  }
};

PhaseCounts CountPhase(const std::vector<Request>& requests,
                       const std::vector<Answer>& answers) {
  PhaseCounts c;
  for (size_t i = 0; i < requests.size(); ++i) {
    ++c.sent;
    if (answers[i].ok) {
      ++c.ok;
    } else if (answers[i].refused) {
      ++c.refused;
    } else {
      ++c.failed;
    }
  }
  return c;
}

void ReportPhase(const std::string& phase, const PhaseCounts& c,
                 Report* report) {
  report->Set("serve." + phase + ".sent", c.sent);
  report->Set("serve." + phase + ".ok", c.ok);
  report->Set("serve." + phase + ".failed", c.failed);
  report->Set("serve." + phase + ".refused", c.refused);
  std::fprintf(stderr,
               "[perfbench] phase %-7s sent %lld ok %lld failed %lld "
               "refused %lld\n",
               phase.c_str(), static_cast<long long>(c.sent),
               static_cast<long long>(c.ok),
               static_cast<long long>(c.failed),
               static_cast<long long>(c.refused));
}

std::vector<Answer> ParseAll(const std::vector<Request>& requests) {
  std::vector<Answer> answers;
  answers.reserve(requests.size());
  for (const Request& r : requests) answers.push_back(ParseAnswer(r));
  return answers;
}

/// The in-process twin of a daemon context: the daemon's dataset and
/// campaign recipe (serve/context_cache.cc) at the answer's theta.
struct ReferenceContext {
  std::shared_ptr<const oipa::PlanningContext> context;
  std::vector<oipa::VertexId> pool;
};

ReferenceContext MakeReference(const oipa::serve::WireRequest& wire,
                               int64_t grow_to, Tracer* tracer) {
  oipa::Dataset dataset;
  {
    ScopedSpan span(tracer, "data.build", -1);
    dataset = oipa::MakeDatasetByName("lastfm", wire.dataset.scale,
                                      wire.dataset.seed);
  }
  oipa::Rng rng(wire.dataset.seed + 4);
  auto campaign = std::make_shared<const oipa::Campaign>(
      oipa::Campaign::SampleUniformPieces(wire.dataset.ell,
                                          dataset.num_topics, &rng));
  oipa::ContextOptions options;
  options.theta = wire.sampling.theta;
  options.holdout_theta = -1;
  options.seed = wire.sampling.seed;
  options.sampling_threads = kSamplingThreads;
  options.share_samples = false;
  ReferenceContext ref;
  {
    ScopedSpan span(tracer, "api.context", -1);
    auto context = oipa::PlanningContext::Create(
        std::shared_ptr<const oipa::Graph>(std::move(dataset.graph)),
        std::shared_ptr<const oipa::EdgeTopicProbs>(std::move(dataset.probs)),
        campaign,
        oipa::LogisticAdoptionModel(wire.dataset.alpha, wire.dataset.beta),
        options);
    OIPA_CHECK(context.ok()) << context.status().ToString();
    ref.context = std::move(*context);
  }
  if (grow_to > wire.sampling.theta) {
    ScopedSpan span(tracer, "rrset.extend", -1);
    OIPA_CHECK(ref.context->GrowSamples(grow_to).ok());
  }
  ref.pool = std::move(dataset.promoter_pool);
  return ref;
}

// serve-mix: the daemon under an open-loop mix of cached hits, parallel
// solves, heuristics, theta raises and cold misses.
void RunServeMix(const Options& options, Tracer* tracer, Report* report) {
  constexpr int kWorkers = 2;
  constexpr double kFixedRate = 100.0;
  // A miss holds a worker for about 60 ms. Twice as many made the
  // median latency rise further whenever the shared host was busy.
  constexpr int kMisses = 20;
  constexpr int kRaises = 32;
  constexpr int kFixedSegments = 6;
  const int64_t n_fixed =
      std::max<int64_t>(200, std::llround(options.seconds * 0.4 *
                                          kFixedRate));
  // Closed-loop requests per segment (one segment after each fixed one).
  const int64_t n_closed =
      std::max<int64_t>(100, std::llround(options.seconds * 20));

  // ---- set-up: start the daemon and warm its contexts, three times.
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<LoadGenerator> client;
  std::vector<double> setup_s;
  int64_t next_id = 0;
  for (int rep = 0; rep < 3; ++rep) {
    client.reset();
    daemon.reset();
    const double t0 = NowS();
    daemon = std::make_unique<Daemon>();
    client = std::make_unique<LoadGenerator>();
    if (!daemon->Start(options.serve_bin, kWorkers) ||
        !client->Connect(daemon->port())) {
      report->Fail("cannot start or reach " + options.serve_bin);
      return;
    }
    std::vector<ServeOp> warm;
    for (int c = 0; c < kWarmContexts; ++c) {
      warm.push_back({ServeKind::kHit, 10, c, 0.0});
    }
    ServeOp raise{ServeKind::kRaise, 10, -1, 0.0};
    warm.push_back(raise);
    std::vector<Request> requests = MakeRequests(warm, &next_id);
    client->Run(&requests, /*callers=*/1, 30.0);
    for (const Answer& a : ParseAll(requests)) {
      if (!a.ok) report->Fail("warming a daemon context failed");
    }
    setup_s.push_back(NowS() - t0);
  }
  if (!report->correct) return;
  report->Set("setup_s", Median(setup_s));
  std::fprintf(stderr, "[perfbench] setup: median %.3f s of 3\n",
               Median(setup_s));

  ServeMix read_mix;
  read_mix.warm_contexts = kWarmContexts;

  // ---- warm-up: one second of the read mix at the fixed rate.
  {
    std::vector<Request> requests = MakeRequests(
        MakeServeOps(DeriveSeed(options.seed, 40), 100, read_mix,
                     kFixedRate),
        &next_id);
    client->Run(&requests, /*callers=*/0, 10.0);
    ReportPhase("warmup", CountPhase(requests, ParseAll(requests)), report);
  }

  // ---- fixed rate: the full mix, raises and misses included, run in
  // kFixedSegments slices spread over the run (see the interleaving
  // below), so that a slow stretch of the host moves one slice only.
  ServeMix fixed_mix = read_mix;
  fixed_mix.raises = kRaises;
  fixed_mix.misses = kMisses;
  std::vector<Request> fixed = MakeRequests(
      MakeServeOps(options.seed, static_cast<int>(n_fixed), fixed_mix,
                   kFixedRate),
      &next_id);
  // Daemon CPU time is sampled every kCpuWindow sends; cpu_s_per_plan
  // is the median over those windows.
  constexpr int64_t kCpuWindow = 100;
  std::vector<double> cpu_per_plan;
  const auto fixed_segment = [&](int segment) {
    const size_t begin = fixed.size() * segment / kFixedSegments;
    const size_t end = fixed.size() * (segment + 1) / kFixedSegments;
    std::vector<Request> slice(fixed.begin() + begin, fixed.begin() + end);
    const double offset = slice.front().op.at_s;
    for (Request& r : slice) r.op.at_s -= offset;
    std::vector<double> marks;
    client->Run(&slice, /*callers=*/0, 30.0, [&](int64_t i) {
      if (i % kCpuWindow == 0) {
        marks.push_back(ProcessCpuSeconds(daemon->pid()));
      }
    });
    marks.push_back(ProcessCpuSeconds(daemon->pid()));
    for (size_t w = 1; w < marks.size(); ++w) {
      const int64_t sent = std::min<int64_t>(
          kCpuWindow, static_cast<int64_t>(slice.size()) -
                          static_cast<int64_t>(w - 1) * kCpuWindow);
      cpu_per_plan.push_back((marks[w] - marks[w - 1]) / sent);
    }
    for (size_t i = 0; i < slice.size(); ++i) {
      slice[i].op = fixed[begin + i].op;
      fixed[begin + i] = std::move(slice[i]);
    }
  };

  // ---- closed loop: one caller per connection, the read mix. The
  // in-process workloads have one caller; here a single caller would
  // time the loopback round trip more than the daemon.
  PhaseCounts closed_counts;
  std::vector<double> chunk_rate;
  const auto closed_segment = [&](int segment) {
    std::vector<Request> requests = MakeRequests(
        MakeServeOps(DeriveSeed(options.seed, 41 + segment),
                     static_cast<int>(n_closed), read_mix, 1.0),
        &next_id);
    client->Run(&requests, LoadGenerator::kConnections, 30.0);
    const std::vector<Answer> answers = ParseAll(requests);
    closed_counts.Add(CountPhase(requests, answers));
    // Median over chunks of kChunk consecutive requests, as in-process.
    constexpr size_t kChunk = 50;
    for (size_t b = 0; b + kChunk <= requests.size(); b += kChunk) {
      int64_t ok = 0;
      for (size_t i = b; i < b + kChunk; ++i) ok += answers[i].ok ? 1 : 0;
      const double wall = requests[b + kChunk - 1].done - requests[b].due;
      if (ok == static_cast<int64_t>(kChunk) && wall > 0) {
        chunk_rate.push_back(ok / wall);
      }
    }
  };

  // ---- rate ladder: the read mix at rising Poisson rates.
  PhaseCounts ladder_counts;
  constexpr double kRungSeconds = 0.8;
  Ladder ladder(options.limit_ms, kWorkers,
                [&](double rate, int r) {
    const int64_t count = std::llround(rate * kRungSeconds);
    std::vector<Request> requests = MakeRequests(
        MakeServeOps(DeriveSeed(options.seed, 600 + r),
                     static_cast<int>(count), read_mix, rate),
        &next_id);
    client->Run(&requests, /*callers=*/0, 30.0);
    const std::vector<Answer> answers = ParseAll(requests);
    const PhaseCounts c = CountPhase(requests, answers);
    ladder_counts.Add(c);
    Rung rung;
    rung.rate = rate;
    rung.sent = c.sent;
    rung.failed = c.sent - c.ok;
    std::vector<double> ms;
    std::vector<Arrival> arrivals;
    for (size_t i = 0; i < requests.size(); ++i) {
      // A refused or failed request misses any limit but holds no place
      // in the backlog.
      const Request& q = requests[i];
      ms.push_back(answers[i].ok ? (q.done - q.due) * 1e3 : 1e9);
      arrivals.push_back({q.due, answers[i].ok ? q.done : q.due});
    }
    rung.tail = TailOf(ms);
    rung.backlog_growth = BacklogGrowth(arrivals);
    return rung;
  });

  // The phases interleave so that each samples the whole run: fixed,
  // closed, fixed, closed, and so on. Traced runs also climb the ladder
  // after the second and the fourth of the six segments; untraced runs do
  // not, because driving the daemon to saturation disturbs the
  // fixed-rate slices that follow.
  for (int segment = 0; segment < kFixedSegments; ++segment) {
    fixed_segment(segment);
    closed_segment(segment);
    if (options.trace && (segment == 1 || segment == 3)) {
      ladder.Climb(segment / 2, Median(chunk_rate));
    }
  }
  if (options.trace) {
    report->Set("serve_max_rps", ladder.MaxRate());
    ReportPhase("ladder", ladder_counts, report);
  }
  ReportPhase("closed", closed_counts, report);
  report->Set("plans_per_s", Median(chunk_rate));
  report->Set("peak_rss_mb", PeakRssMb(daemon->pid()));
  report->attempted += closed_counts.sent;
  report->failed += closed_counts.sent - closed_counts.ok;

  // ---- cost probe (traced runs, after peak_rss_mb was read): every kind
  // on its own, one request at a time. A request's latency is then its
  // service time, and the daemon's samples_generated, which it reads
  // from one counter shared by its workers, counts this request's
  // sampling alone. Raises continue past the fixed phase's last theta;
  // misses take dataset seeds the fixed phase did not use.
  std::map<ServeKind, std::vector<double>> service_ms;
  std::map<ServeKind, std::vector<double>> service_solve_ms;
  int64_t probe_samples = 0;
  if (options.trace) {
    std::vector<ServeOp> probe_ops;
    for (int j = 0; j < 40; ++j) {
      probe_ops.push_back(
          {ServeKind::kHit, j % 2 == 0 ? 10 : 20, (j / 2) % kWarmContexts});
    }
    for (int j = 0; j < 20; ++j) {
      probe_ops.push_back({ServeKind::kParallel, 40, j % kWarmContexts});
      probe_ops.push_back({ServeKind::kHeuristic, 20, j % kWarmContexts});
    }
    for (int j = 0; j < 4; ++j) {
      probe_ops.push_back({ServeKind::kRaise, 10, kRaises + j});
      probe_ops.push_back({ServeKind::kMiss, 10, kMisses + j});
    }
    std::vector<Request> requests = MakeRequests(probe_ops, &next_id);
    client->Run(&requests, /*callers=*/1, 30.0);
    const std::vector<Answer> answers = ParseAll(requests);
    ReportPhase("probe", CountPhase(requests, answers), report);
    for (size_t i = 0; i < requests.size(); ++i) {
      if (!answers[i].ok) continue;
      const ServeKind kind = requests[i].op.kind;
      service_ms[kind].push_back((requests[i].done - requests[i].due) * 1e3);
      service_solve_ms[kind].push_back(answers[i].solve_s * 1e3);
      probe_samples += answers[i].samples_generated;
    }
  }
  client.reset();
  daemon.reset();

  const std::vector<Answer> fixed_answers = ParseAll(fixed);
  const PhaseCounts fixed_counts = CountPhase(fixed, fixed_answers);
  ReportPhase("fixed", fixed_counts, report);

  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  std::vector<double> overhead_ms;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> batched_ms;
  std::vector<double> extend_ms;
  std::vector<double> bab_p_ms;
  std::vector<double> par_ms;
  std::vector<double> heuristic_ms;
  double holdout_sum = 0;
  int64_t holdout_n = 0;
  int64_t cache_hits = 0;
  int64_t batch_sum = 0;
  Tracer& t = *tracer;
  for (size_t i = 0; i < fixed.size(); ++i) {
    const Request& r = fixed[i];
    const Answer& a = fixed_answers[i];
    // Refused and failed requests miss any latency limit.
    const double ms = a.ok ? (r.done - r.due) * 1e3 : 1e9;
    latency_ms.push_back(ms);
    lag_ms.push_back((r.sent - r.due) * 1e3);
    if (!a.ok) continue;
    const double solve_ms = a.solve_s * 1e3;
    cache_hits += a.cache_hit ? 1 : 0;
    batch_sum += a.batch_size;
    const ServeKind kind = r.op.kind;
    if (!a.converged || a.pieces != kEll) {
      report->Fail("daemon answer " + std::to_string(i) +
                   " did not converge");
    }
    if (kind == ServeKind::kMiss) {
      miss_ms.push_back(ms);
    } else if (kind == ServeKind::kRaise) {
      extend_ms.push_back(ms - solve_ms);
    } else {
      overhead_ms.push_back(ms - solve_ms);
      if (a.batch_size > 1) {
        batched_ms.push_back(ms);
      } else if (a.cache_hit) {
        hit_ms.push_back(ms);
      }
      if (kind == ServeKind::kParallel) {
        par_ms.push_back(solve_ms);
      } else {
        holdout_sum += a.holdout_utility;
        ++holdout_n;
        (kind == ServeKind::kHit ? bab_p_ms : heuristic_ms)
            .push_back(solve_ms);
      }
    }
    // Traced runs rebuild each request's spans on the client side after
    // the run: the request from due to answer, with the daemon's reported
    // solve at its end. The daemon itself records no spans.
    if (t.enabled()) {
      t.set_active(true);
      const int64_t start = static_cast<int64_t>(r.due * 1e9);
      const int64_t end = static_cast<int64_t>(r.done * 1e9);
      const int64_t op = static_cast<int64_t>(i);
      t.Add({"serve.request", start, end, -1, op});
      const int64_t parent = static_cast<int64_t>(t.spans().size()) - 1;
      const int64_t solve_start =
          std::max(start, end - static_cast<int64_t>(a.solve_s * 1e9));
      t.Add({SolveSpanName(MethodOf(r.op)), solve_start, end, parent, op});
      t.set_active(false);
    }
  }
  const Tail tail = TailOf(latency_ms);
  // The median of the slices' medians: a slow stretch of the host moves
  // one slice's median, not the metric.
  std::vector<double> slice_p50;
  for (int segment = 0; segment < kFixedSegments; ++segment) {
    slice_p50.push_back(Median(std::vector<double>(
        latency_ms.begin() + fixed.size() * segment / kFixedSegments,
        latency_ms.begin() + fixed.size() * (segment + 1) / kFixedSegments)));
  }
  report->Set("plan_ms_p50", Median(slice_p50));
  report->Set("plan_ms_tail", tail.value);
  report->Set("ok_ratio",
              static_cast<double>(fixed_counts.ok) / fixed_counts.sent);
  report->Set("holdout_utility_mean",
              holdout_n > 0 ? holdout_sum / holdout_n : 0.0);
  report->Set("cpu_s_per_plan", Median(cpu_per_plan));
  std::fprintf(stderr,
               "[perfbench] fixed %.0f/s: %lld requests, p50 %.3f ms, tail "
               "p%.1f of %lld = %.3f ms\n",
               kFixedRate, static_cast<long long>(n_fixed),
               Median(latency_ms), tail.percentile,
               static_cast<long long>(tail.samples), tail.value);
  report->attempted += fixed_counts.sent;
  report->failed += fixed_counts.sent - fixed_counts.ok;

  // ---- checks: a seeded sample of fixed-phase answers must be
  // bit-identical to an in-process Solve of the same spec (all but the
  // parallel ones, whose plan may legitimately differ), and parallel
  // node counts are compared with the sequential engine's.
  oipa::Rng pick(DeriveSeed(options.seed, 50));
  std::map<std::string, int> checked_per_kind;
  std::map<std::string, ReferenceContext> references;
  SolveTally tally;
  int64_t par_nodes = 0;
  int64_t seq_nodes = 0;
  std::vector<double> parse_us;
  for (size_t i = 0; i < fixed.size(); ++i) {
    const double p0 = NowS();
    auto wire = oipa::serve::ParseWireRequest(fixed[i].line);
    parse_us.push_back((NowS() - p0) * 1e6);
    if (!wire.ok()) {
      report->Fail("request line does not parse: " + fixed[i].line);
      continue;
    }
    const Answer& a = fixed_answers[i];
    if (!a.ok) continue;
    const ServeKind kind = fixed[i].op.kind;
    const std::string kind_name = ServeKindName(kind);
    const bool parallel = kind == ServeKind::kParallel;
    // Up to four answers of every kind (sixteen parallel ones), picked
    // by the seed: identity for sequential kinds, node inflation for
    // the parallel kind.
    if (checked_per_kind[kind_name] >= (parallel ? 16 : 4) ||
        pick.NextDouble() > 0.2) {
      continue;
    }
    ++checked_per_kind[kind_name];
    const int64_t theta_used = a.theta_used;
    const std::string key = std::to_string(wire->dataset.seed) + "/" +
                            std::to_string(theta_used);
    auto it = references.find(key);
    if (it == references.end()) {
      t.set_active(options.trace);
      it = references.emplace(key, MakeReference(*wire, theta_used, &t))
               .first;
      t.set_active(false);
    }
    oipa::PlanRequest request =
        oipa::serve::ToPlanRequest(*wire, it->second.pool);
    request.num_threads = 1;
    t.set_active(options.trace);
    const OpOutcome outcome =
        SolveAndEncode(*it->second.context, request, &t, -1, report);
    t.set_active(false);
    if (!outcome.ok) continue;
    tally.Add(outcome.response);
    if (parallel) {
      par_nodes += a.nodes;
      seq_nodes += outcome.response.nodes_expanded;
      continue;
    }
    const std::string want =
        RowWithoutTime(oipa::serve::ResultJson(outcome.response));
    if (RowWithoutTime(a.row) != want) {
      report->Fail("daemon answer " + std::to_string(i) + " (" + kind_name +
                   ") differs from the in-process solve:\n  daemon " +
                   RowWithoutTime(a.row) + "\n  local  " + want);
    }
  }
  std::string checked;
  for (const auto& [kind, count] : checked_per_kind) {
    checked += " " + kind + "=" + std::to_string(count);
  }
  std::fprintf(stderr, "[perfbench] bit-identity checked:%s\n",
               checked.c_str());
  if (checked_per_kind.size() < 5) {
    report->Fail("too few daemon answers checked against in-process solves");
  }
  if (options.trace) {
    tally.Publish(report);
    report->Set("oipa.par_node_inflation",
                seq_nodes > 0 ? static_cast<double>(par_nodes) / seq_nodes
                              : 0.0);
    // data.build, api.* and cli.encode come from the in-process
    // reference solves of the checks, the rest from the daemon's answers.
    ReportLayerSpans(t, report);
    report->Set("serve.overhead_ms_p50", Median(overhead_ms));
    report->Set("serve.hit_ms_p50", Median(hit_ms));
    report->Set("serve.miss_ms_p50", Median(miss_ms));
    report->Set("serve.batched_ms_p50", Median(batched_ms));
    report->Set("serve.cache_hit_ratio",
                fixed_counts.ok > 0
                    ? static_cast<double>(cache_hits) / fixed_counts.ok
                    : 0.0);
    report->Set("serve.batch_size_mean",
                fixed_counts.ok > 0
                    ? static_cast<double>(batch_sum) / fixed_counts.ok
                    : 0.0);
    // Counted by the daemon during the probe's raises and misses: four
    // in-place growths and four fresh stores. A daemon that resampled a
    // whole store on a raise, or lost theta-prefix sharing, counts more.
    report->Set("serve.samples_generated", static_cast<double>(probe_samples));
    report->Set("serve.rejected_ratio",
                static_cast<double>(fixed_counts.refused) / fixed_counts.sent);
    report->Set("serve.generator_lag_ms", TailOf(lag_ms).value);
    report->Set("rrset.extend_ms", Median(extend_ms));
    report->Set("oipa.solve_ms.bab-p", Median(bab_p_ms));
    report->Set("oipa.par_solve_ms", Median(par_ms));
    report->Set("im.solve_ms.degree-discount", Median(heuristic_ms));
    report->Set("serve.parse_us", Median(parse_us));

    // Each kind's share of the fixed mix's daemon time: its count in the
    // mix times its service time alone (the probe). Serve overhead is
    // the part of a read request's service time that is not its solve;
    // raises and misses spend theirs sampling and building datasets.
    std::map<ServeKind, int64_t> mix_count;
    for (const Request& r : fixed) ++mix_count[r.op.kind];
    double mix_ms = 0;
    double overhead_ms_total = 0;
    for (const auto& [kind, count] : mix_count) {
      mix_ms += count * MeanOf(service_ms[kind]);
    }
    std::fprintf(stderr,
                 "[perfbench] fixed mix by kind (service and solve: "
                 "means of the probe, one request at a time):\n"
                 "  %-10s %8s %9s %11s %9s %11s\n",
                 "kind", "requests", "share", "service_ms", "solve_ms",
                 "time_share");
    for (const auto& [kind, count] : mix_count) {
      const double service = MeanOf(service_ms[kind]);
      const double solve = MeanOf(service_solve_ms[kind]);
      if (kind == ServeKind::kHit || kind == ServeKind::kParallel ||
          kind == ServeKind::kHeuristic) {
        overhead_ms_total += count * (service - solve);
      }
      std::fprintf(stderr, "  %-10s %8lld %9.3f %11.3f %9.3f %11.3f\n",
                   ServeKindName(kind), static_cast<long long>(count),
                   static_cast<double>(count) / fixed.size(), service, solve,
                   mix_ms > 0 ? count * service / mix_ms : 0.0);
    }
    report->Set("serve.overhead_share",
                mix_ms > 0 ? overhead_ms_total / mix_ms : 0.0);
    // trace.overhead_ratio stays 0 here: the spans are rebuilt after the
    // run from timestamps the untraced traffic took anyway, so there is
    // no traced execution to compare.
    WriteTrace(t,
               options.out_dir + "/trace-serve-mix-seed" +
                   std::to_string(options.seed) + ".json",
               static_cast<int64_t>(fixed.size()),
               "client-side reconstruction: request from due to answer, "
               "daemon-reported solve at its end; fixed-phase p50 " +
                   std::to_string(Median(latency_ms)) + " ms");
  }
}

/// Search's traced runs also drive oipa_serve with the serve-mix traffic
/// and take from it the metrics of the layers only the daemon exercises.
/// serve-mix is not a workload of BENCHMARK.json: its latencies swing
/// too far with the load on the shared host to be bounded (README.md).
void RunServeLeg(const Options& options, Report* report) {
  static const std::set<std::string> kDaemonOnly = {
      "rrset.extend_ms", "oipa.par_solve_ms", "oipa.par_node_inflation",
      "im.solve_ms.degree-discount"};
  Tracer tracer(true);
  Report serve;
  RunServeMix(options, &tracer, &serve);
  for (const auto& [name, value] : serve.values) {
    if (name.rfind("serve", 0) == 0 || kDaemonOnly.count(name) > 0) {
      report->Set(name, value);
    }
  }
  if (!serve.correct) report->Fail("the serve leg failed its checks");
  report->attempted += serve.attempted;
  report->failed += serve.failed;
}

// ----------------------------------------------------------------- main

bool ParseLimits(const std::string& text, const std::string& workload,
                 double* limit_ms) {
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    const size_t eq = item.find('=');
    if (eq != std::string::npos && item.substr(0, eq) == workload) {
      *limit_ms = std::atof(item.c_str() + eq + 1);
      return *limit_ms > 0;
    }
  }
  return false;
}

int Main(int argc, char** argv) {
  oipa::FlagParser flags(argc, argv);
  Options options;
  options.workload = flags.GetString("workload", "");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.seconds = flags.GetDouble("seconds", 20);
  options.trace = flags.GetInt("trace", 0) != 0;
  options.serve_bin = flags.GetString("serve_bin", "");
  options.out_dir = flags.GetString("out_dir", ".");
  const std::string limits = flags.GetString("limits", "");
  if (!ParseLimits(limits, "serve-mix", &options.limit_ms) ||
      options.serve_bin.empty() || options.seconds <= 0) {
    std::cerr << "usage: oipa_perfbench --workload=cold-plan|search|"
                 "serve-mix --seed=N --seconds=S --trace=0|1 "
                 "--limits=serve-mix=<ms> --serve_bin=PATH "
                 "[--out_dir=DIR]\n";
    return 2;
  }
  Tracer tracer(options.trace);
  Report report;
  if (options.workload == "cold-plan") {
    RunColdPlan(options, &tracer, &report);
  } else if (options.workload == "search") {
    RunSearch(options, &tracer, &report);
    if (options.trace) RunServeLeg(options, &report);
  } else if (options.workload == "serve-mix") {
    RunServeMix(options, &tracer, &report);
  } else {
    std::cerr << "unknown workload " << options.workload << "\n";
    return 2;
  }
  if (report.attempted < 1) report.Fail("no operation was attempted");
  PrintResult(report, options.trace);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
