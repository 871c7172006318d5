#ifndef GRANMINE_ENGINE_STATUSZ_H_
#define GRANMINE_ENGINE_STATUSZ_H_

// Live engine status: a point-in-time structured snapshot of the serving
// state — admission slots and queue, every in-flight request with its id,
// elapsed time and remaining governor budgets, the frozen-family summary,
// and the obs-layer totals — rendered as one JSON object with a stable key
// order (docs/observability.md, "statusz").
//
// The structs here are plain data so tests can golden-check the renderer
// against hand-built values; `Engine::Statusz()` fills them from the live
// controller/governors, and stream callers (CLI `stream --statusz-every`)
// append a StatuszStream block built from their OnlineMiner's telemetry.

#include <cstdint>
#include <string>
#include <vector>

namespace granmine {

/// One in-flight request (admitted, not yet released).
struct StatuszRequest {
  std::uint64_t id = 0;
  std::string cls;  // "mine" / "stream"
  double elapsed_ms = 0;
  bool governed = false;
  /// Remaining wall budget in ms; -1 = no deadline.
  std::int64_t deadline_remaining_ms = -1;
  std::uint64_t steps_charged = 0;
  std::uint64_t steps_budget = 0;  // 0 = unbounded
  std::uint64_t memory_bytes = 0;
  std::uint64_t memory_budget_bytes = 0;  // 0 = unbounded
};

/// One admission class (mine/match/stream): slot occupancy + service p95.
struct StatuszAdmissionClass {
  std::string cls;
  int active = 0;
  int slots = 0;  // <= 0 = unlimited
  double p95_ms = 0;
};

struct StatuszAdmission {
  bool enabled = false;
  std::size_t queue_depth = 0;
  std::size_t max_queue = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t degraded = 0;
  std::string first_shed_cause = "none";
  std::vector<StatuszAdmissionClass> classes;
};

/// Stream-session telemetry (filled by the session owner, not the engine:
/// an OnlineMiner is externally single-threaded, so only its driving thread
/// can read it safely).
struct StatuszStream {
  std::int64_t watermark = 0;
  std::int64_t horizon = 0;
  std::int64_t retention = 0;
  std::int64_t tolerance = 0;
  std::size_t buffered_events = 0;
  std::uint64_t late_events = 0;
  std::uint64_t shed_events = 0;
  std::size_t resident_roots = 0;
  std::size_t resident_configurations = 0;
  std::uint64_t checkpoints_written = 0;
  /// Arrivals admitted since the last checkpoint write (the checkpoint lag);
  /// -1 = checkpointing off.
  std::int64_t events_since_checkpoint = -1;
};

struct EngineStatusz {
  /// Request ids minted so far (the next request gets requests_total + 1).
  std::uint64_t requests_total = 0;
  bool frozen = false;
  std::size_t granularities = 0;
  int num_threads = 1;
  StatuszAdmission admission;
  std::vector<StatuszRequest> in_flight;
  /// Obs-layer totals: registered metric series, buffered/dropped trace
  /// spans, log lines written/suppressed, flight-recorder occupancy.
  std::size_t metric_series = 0;
  std::size_t trace_spans = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t log_emitted = 0;
  std::uint64_t log_suppressed = 0;
  std::size_t recorder_events = 0;
  std::uint64_t recorder_total = 0;
};

/// Renders the snapshot as one JSON object (no trailing newline) with keys
/// in a fixed order. `stream`, when non-null, adds a "stream" block.
std::string RenderStatuszJson(const EngineStatusz& statusz,
                              const StatuszStream* stream = nullptr);

}  // namespace granmine

#endif  // GRANMINE_ENGINE_STATUSZ_H_
