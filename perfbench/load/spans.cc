#include "spans.h"

#include <cstdio>

namespace perfbench {

std::uint64_t SpanLog::Begin(const char* name, std::uint64_t parent,
                             std::uint64_t request, int track) {
  Span span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.track = track;
  span.start_us = NowUs();
  spans_.push_back(span);
  return span.id;
}

void SpanLog::End(std::uint64_t id) { spans_[id - 1].end_us = NowUs(); }

std::map<std::string, SpanTotals> SpanLog::Totals() const {
  std::vector<double> child_us(spans_.size() + 1, 0.0);
  for (const Span& span : spans_) {
    child_us[span.parent] += span.end_us - span.start_us;
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& span : spans_) {
    SpanTotals& entry = totals[span.name];
    const double duration = span.end_us - span.start_us;
    ++entry.count;
    entry.total_us += duration;
    entry.children_us += child_us[span.id];
    entry.self_us += duration - child_us[span.id];
    if (child_us[span.id] > duration) ++entry.overrun;
  }
  return totals;
}

std::string SpanLog::ChromeTraceJson() const {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char line[512];
  const char* track_names[] = {"request", "replayed layer calls"};
  for (int tid = 0; tid < 2; ++tid) {
    std::snprintf(line, sizeof(line),
                  "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\","
                  "\"args\":{\"name\":\"%s\"}},\n",
                  tid, track_names[tid]);
    out += line;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span_id\":%llu,"
                  "\"parent_id\":%llu,\"request_id\":%llu}}%s\n",
                  span.track, span.name, span.start_us,
                  span.end_us - span.start_us,
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent),
                  static_cast<unsigned long long>(span.request),
                  i + 1 < spans_.size() ? "," : "");
    out += line;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
