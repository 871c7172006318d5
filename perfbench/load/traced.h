#ifndef PERFBENCH_LOAD_TRACED_H_
#define PERFBENCH_LOAD_TRACED_H_

// The in-process request path: the server's per-request work without the
// sockets — client encode, frame decode, the service call, reply encode and
// client decode — run on an in-process engine. Untraced, it gives the
// in-process service time of each request. Traced, it records a span around
// each of those calls and then re-issues, as that service span's children,
// the layer calls the service made internally (parse, Engine::Mine and the
// §5 steps inside it, or the OnlineMiner calls of a stream frame) on the
// same inputs. A layer's self time is its span minus its children.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "granmine/engine/engine.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

/// Work counts gathered from the replayed layer calls.
struct LayerCounts {
  std::uint64_t requests = 0;       ///< mine requests or ingest frames
  std::uint64_t wire_bytes = 0;     ///< request + reply frame bytes
  std::uint64_t tag_runs = 0;       ///< MiningReport::tag_runs
  std::uint64_t configurations = 0;  ///< MiningReport::matcher_configurations
  std::uint64_t candidates_before = 0;
  std::uint64_t candidates_after = 0;
  std::uint64_t events_ingested = 0;
  double resident_configs_sum = 0;  ///< summed after every ingest frame
};

struct InProcessRun {
  bool ok = true;
  std::string failure;
  /// Untraced in-process time per request, averaged per pool item (mine) or
  /// per session (stream, per ingest frame).
  std::vector<double> item_us;
  double request_us = 0;  ///< mean over every request of the run
};

/// Runs every pool request once through the in-process path and checks each
/// reply against the pool's expected bytes. With `log`, records the spans and
/// the replayed layer calls and adds their work to `counts`.
InProcessRun RunInProcess(granmine::Engine* engine, const Pool& pool,
                          SpanLog* log, LayerCounts* counts);

/// The sealed share of the granularity table lookups made while serving
/// every pool request once, read from the in-process MetricsRegistry.
double SealedLookupFraction(granmine::Engine* engine, const Pool& pool);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_TRACED_H_
