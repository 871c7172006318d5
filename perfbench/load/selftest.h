#ifndef PERFBENCH_LOAD_SELFTEST_H_
#define PERFBENCH_LOAD_SELFTEST_H_

// Self-tests of the harness itself (perfbench/README.md, "Self-tests").

#include <cstdint>

#include "workload.h"

namespace perfbench {

/// Drives the open loop against an in-process responder that answers every
/// mine request with its expected reply, once promptly and once with a
/// single stall, and checks that the latency timed from the due time grows
/// by the stall. `pool` must hold expectations. Returns the exit code.
int StalledResponderSelfTest(const Pool& pool, double rate_rps);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_SELFTEST_H_
