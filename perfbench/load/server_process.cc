#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "granmine/server/client.h"

namespace perfbench {

using granmine::Result;
using granmine::Status;

namespace {

constexpr int kStartTimeoutMs = 120'000;

// Reads one line from `fd`, waiting at most until `deadline`.
Result<std::string> ReadLine(int fd,
                             std::chrono::steady_clock::time_point deadline) {
  std::string line;
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      return Status::Invalid("granmine_serve did not report its port");
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char c = 0;
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return Status::Invalid("granmine_serve exited during startup");
    if (c == '\n') return line;
    line.push_back(c);
  }
}

}  // namespace

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& flags) {
  std::vector<std::string> args = {binary, "--port", "0"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int out[2];
  if (::pipe2(out, O_CLOEXEC) != 0) return Status::Internal("pipe failed");
  const pid_t parent = ::getpid();
  const auto exec_at = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(out[0]);
    ::close(out[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out[1], STDOUT_FILENO);
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) ::dup2(null_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(out[1]);
  std::unique_ptr<ServerProcess> process(new ServerProcess());
  process->pid_ = pid;

  const auto deadline =
      exec_at + std::chrono::milliseconds(kStartTimeoutMs);
  Result<std::string> line = ReadLine(out[0], deadline);
  ::close(out[0]);
  if (!line.ok()) return line.status();
  const std::size_t colon = line->rfind(':');
  if (line->find("listening on") == std::string::npos ||
      colon == std::string::npos) {
    return Status::Invalid("unexpected granmine_serve banner: " + *line);
  }
  process->port_ =
      static_cast<std::uint16_t>(std::atoi(line->c_str() + colon + 1));

  auto client = granmine::server::Client::Connect("127.0.0.1", process->port_);
  if (!client.ok()) return client.status();
  if (Status pong = (*client)->Ping(); !pong.ok()) return pong;
  process->setup_s_ = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - exec_at)
                          .count();
  return process;
}

ServerProcess::~ServerProcess() { Stop(); }

double ServerProcess::CpuMs() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3, utime
  // field 14 and stime field 15 (proc(5)).
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int field = 3; field < 14; ++field) fields >> skip;
  double utime = 0, stime = 0;
  fields >> utime >> stime;
  return (utime + stime) * 1000.0 / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // the value is in kB
    }
  }
  return 0;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (::waitpid(pid_, nullptr, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
}

}  // namespace perfbench
