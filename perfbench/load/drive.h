#ifndef PERFBENCH_LOAD_DRIVE_H_
#define PERFBENCH_LOAD_DRIVE_H_

// The network side of the benchmark: drives a running server over the wire
// protocol — the closed loops with one thread per connection, the open loop
// with one poll-loop thread for all its connections — and checks every
// reply against the pool's expected bytes.

#include <cstdint>
#include <string>
#include <vector>

#include "granmine/server/client.h"
#include "workload.h"

namespace perfbench {

struct LoadResult {
  std::uint64_t attempted = 0;  ///< frames sent, every kind
  std::uint64_t failed = 0;     ///< error replies, mismatches, lost replies
  std::uint64_t completed = 0;  ///< verified requests (mine / ingest frames)
  double seconds = 0;           ///< start to last reply
  std::vector<double> latency_ms;   ///< per completed request, reply order
  std::vector<double> lateness_ms;  ///< open loop: send time minus due time
  std::string first_failure;
};

/// Closed loop: each connection sends the pool's next mine request (one
/// cursor shared by all connections) when its previous reply arrives, until
/// `seconds` pass — or, when `max_requests` > 0, until that many were sent.
LoadResult RunMineClosed(std::uint16_t port, const Pool& pool,
                         int connections, double seconds,
                         std::uint64_t max_requests = 0);

/// Open loop: request n is due `n / rate_rps` seconds after the start and
/// goes out on connection `n % connections` whether or not earlier replies
/// have arrived. Latency is timed from the due time.
LoadResult RunMineOpen(std::uint16_t port, const Pool& pool, int connections,
                       double rate_rps, double seconds);

/// Closed loop of back-to-back stream sessions per connection (the pool's
/// next session, one cursor shared by all connections): open, the ingest
/// frames, seal. One request is one ingest frame. With `max_sessions` > 0
/// the run ends after that many sessions.
LoadResult RunStreamClosed(std::uint16_t port, const Pool& pool,
                           int connections, double seconds,
                           std::uint64_t max_sessions = 0);

/// Ping round-trip times in microseconds on one otherwise idle connection.
struct Probe {
  std::vector<double> rtt_us;
  std::uint64_t failed = 0;
};
Probe RunPings(std::uint16_t port, int count);

/// The admission queue depth reported by one kStatusz call on `client`;
/// -1 when the call fails.
double SampleQueueDepth(granmine::server::Client* client);

double Percentile(std::vector<double> values, double p);
/// 0 for no values.
double Mean(const std::vector<double>& values);

/// Percentile `p` of each consecutive chunk of at least 1000 samples (at
/// most ten chunks; one chunk when there are fewer than 2000 samples).
/// `latency_ms` is in reply order.
std::vector<double> ChunkPercentiles(const std::vector<double>& latency_ms,
                                     double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_DRIVE_H_
