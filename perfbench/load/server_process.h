#ifndef PERFBENCH_LOAD_SERVER_PROCESS_H_
#define PERFBENCH_LOAD_SERVER_PROCESS_H_

// A granmine_serve child process: spawned cold (no snapshot) on an ephemeral
// loopback port, stopped with SIGTERM and reaped by the destructor. The child
// is also killed if the benchmark process dies first (PR_SET_PDEATHSIG), so
// no server outlives a run.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "granmine/common/result.h"

namespace perfbench {

class ServerProcess {
 public:
  /// Execs `binary --port 0 <flags>`, reads the "listening on HOST:PORT"
  /// line, then connects and pings until the first Pong. `setup_s` is the
  /// time from exec to that Pong.
  static granmine::Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& flags);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  double setup_s() const { return setup_s_; }

  /// User + system CPU of the whole process so far, in milliseconds
  /// (/proc/<pid>/stat, every thread included).
  double CpuMs() const;
  /// Peak resident set size (VmHWM) in MiB.
  double PeakRssMb() const;

  /// SIGTERM, wait for the drain, SIGKILL after a grace period. Idempotent.
  void Stop();

 private:
  ServerProcess() = default;

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  double setup_s_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_SERVER_PROCESS_H_
