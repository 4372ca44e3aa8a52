#ifndef OIPA_PERFBENCH_TRACE_H_
#define OIPA_PERFBENCH_TRACE_H_

// In-memory span recorder for the bench's traced runs. Spans are
// recorded around the bench's own calls into each library layer, kept
// in memory, and written out once at exit. Single-threaded: only the
// bench's calling thread records, so there is no lock. A disabled
// tracer costs one branch per span.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/bench_logic.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Turns recording on or off for the following spans (paired runs
  /// alternate traced and untraced executions of one operation).
  void set_active(bool active) { active_ = active; }
  bool recording() const { return enabled_ && active_; }

  /// Opens a span under the innermost open one; returns its index or
  /// -1 when not recording.
  int64_t Begin(std::string name, int64_t op) {
    if (!recording()) return -1;
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.op = op;
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
    spans_.back().start_ns = NowNs();
    return open_.back();
  }

  void End(int64_t index) {
    if (index < 0) return;
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  /// Records a finished span measured elsewhere (serve-mix: the daemon's
  /// reported solve time, placed at the end of its request span).
  void Add(Span span) {
    if (recording()) spans_.push_back(std::move(span));
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  bool active_ = true;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t op)
      : tracer_(tracer), index_(tracer->Begin(std::move(name), op)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

}  // namespace perfbench

#endif  // OIPA_PERFBENCH_TRACE_H_
