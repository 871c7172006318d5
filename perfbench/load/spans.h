#ifndef PERFBENCH_LOAD_SPANS_H_
#define PERFBENCH_LOAD_SPANS_H_

// Benchmark-side spans for the traced run: name, start, end, parent span and
// request id, kept in memory and written once at the end as Chrome trace
// JSON (loadable by Perfetto). Spans are recorded around calls the benchmark
// makes into granmine's public functions; nothing inside the library is
// instrumented.
//
// A span's parent is its logical caller. Children that re-issue a call the
// parent made internally (the replays of traced.cc) run after the parent, on
// their own track, so self time is computed by duration: a span's duration
// minus the summed durations of its children.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
  int track = 0;  ///< 0 = the request's own calls, 1 = replayed children
  double start_us = 0;
  double end_us = 0;
};

/// Per-name aggregate over every recorded span.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_us = 0;
  double children_us = 0;  ///< summed durations of the spans' children
  double self_us = 0;      ///< total_us - children_us
  /// Spans whose children took longer than the span itself.
  std::uint64_t overrun = 0;
};

class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a span and returns its id; close it with End(id).
  std::uint64_t Begin(const char* name, std::uint64_t parent,
                      std::uint64_t request, int track = 0);
  void End(std::uint64_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Aggregates by span name; self time = duration minus children.
  std::map<std::string, SpanTotals> Totals() const;

  /// Chrome trace_event JSON ("X" complete events, microseconds).
  std::string ChromeTraceJson() const;

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;  // indexed by id - 1
};

/// RAII span; a null log records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t parent,
             std::uint64_t request, int track = 0)
      : log_(log),
        id_(log != nullptr ? log->Begin(name, parent, request, track) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_SPANS_H_
