#include "selftest.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "drive.h"
#include "granmine/server/wire.h"

namespace perfbench {

namespace server = granmine::server;

namespace {

constexpr int kConnections = 2;
constexpr double kSeconds = 2.0;
constexpr double kStallMs = 200.0;

bool WriteAll(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Answers each kMine frame on `fd` with the pool's expected reply; before
// answering request `stall_at` it sleeps for kStallMs.
void Respond(int fd, const Pool& pool, std::uint64_t stall_at) {
  std::vector<std::uint8_t> preamble;
  server::AppendPreamble(&preamble);
  std::uint8_t peer[server::kPreambleSize];
  if (!WriteAll(fd, preamble) ||
      ::recv(fd, peer, sizeof(peer), MSG_WAITALL) !=
          static_cast<ssize_t>(sizeof(peer))) {
    return;
  }
  server::FrameParser parser;
  std::vector<std::uint8_t> buffer(64 * 1024), reply;
  while (true) {
    const ssize_t n = ::read(fd, buffer.data(), buffer.size());
    if (n <= 0) return;
    parser.Feed(std::span<const std::uint8_t>(buffer.data(),
                                              static_cast<std::size_t>(n)));
    while (true) {
      auto frame = parser.Next();
      if (!frame.ok() || !frame->has_value()) break;
      const std::uint64_t index = (**frame).corr_id - 1;
      if (index == stall_at) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(kStallMs));
      }
      reply.clear();
      server::AppendFrame(&reply, server::FrameType::kReply,
                          (**frame).corr_id,
                          pool.mines[index % pool.mines.size()].expected);
      if (!WriteAll(fd, reply)) return;
    }
  }
}

// One open-loop run against a fresh responder.
LoadResult RunAgainstResponder(const Pool& pool, double rate_rps,
                               std::uint64_t stall_at) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (listener < 0 ||
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listener, kConnections) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (listener >= 0) ::close(listener);
    LoadResult failed;
    failed.attempted = failed.failed = 1;
    failed.first_failure = "cannot listen on loopback";
    return failed;
  }
  std::vector<std::thread> handlers;
  std::thread acceptor([&] {
    for (int c = 0; c < kConnections; ++c) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) return;
      handlers.emplace_back([fd, &pool, stall_at] {
        Respond(fd, pool, stall_at);
        ::close(fd);
      });
    }
  });
  LoadResult result = RunMineOpen(ntohs(addr.sin_port), pool, kConnections,
                                  rate_rps, kSeconds);
  acceptor.join();
  for (std::thread& handler : handlers) handler.join();
  ::close(listener);
  return result;
}

}  // namespace

int StalledResponderSelfTest(const Pool& pool, double rate_rps) {
  const std::uint64_t never = ~std::uint64_t{0};
  // Stall in the middle of the run.
  const std::uint64_t stall_at =
      static_cast<std::uint64_t>(rate_rps * kSeconds / 2);
  const LoadResult prompt = RunAgainstResponder(pool, rate_rps, never);
  const LoadResult stalled = RunAgainstResponder(pool, rate_rps, stall_at);
  const double half_stall = kStallMs / 2;
  auto count_over = [&](const LoadResult& run) {
    return std::count_if(run.latency_ms.begin(), run.latency_ms.end(),
                         [&](double ms) { return ms > half_stall; });
  };
  // Requests due in the first half of the stall, on the stalled connection,
  // wait more than half the stall when timed from their due times.
  const double expected_over = half_stall / 1000.0 * rate_rps / kConnections;
  const double stalled_late = Percentile(stalled.lateness_ms, 0.99);
  std::printf(
      "prompt responder:  %llu replies, p50 %.3f ms, p99 %.3f ms, %ld over "
      "%.0f ms\n"
      "stalled responder: %llu replies, p50 %.3f ms, p99 %.3f ms, %ld over "
      "%.0f ms (one %.0f ms stall, %.0f expected); generator lateness p99 "
      "%.3f ms\n",
      static_cast<unsigned long long>(prompt.completed),
      Percentile(prompt.latency_ms, 0.5), Percentile(prompt.latency_ms, 0.99),
      static_cast<long>(count_over(prompt)), half_stall,
      static_cast<unsigned long long>(stalled.completed),
      Percentile(stalled.latency_ms, 0.5),
      Percentile(stalled.latency_ms, 0.99),
      static_cast<long>(count_over(stalled)), half_stall, kStallMs,
      expected_over, stalled_late);
  // The generator kept to its schedule through the stall, and the latency
  // timed from the due times grew by it.
  const bool pass = prompt.failed == 0 && stalled.failed == 0 &&
                    count_over(prompt) == 0 &&
                    static_cast<double>(count_over(stalled)) >=
                        0.8 * expected_over &&
                    stalled_late < kStallMs / 10;
  std::printf("self-test stalled-responder: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace perfbench
