#include "drive.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

namespace perfbench {

namespace server = granmine::server;
using server::FrameType;

namespace {

using Clock = std::chrono::steady_clock;

// A reply that never arrives is a failure, not a hang.
constexpr int kReplyTimeoutS = 30;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// One completed request: when its reply arrived (ms after the start) and
// its latency.
struct Sample {
  double done_ms = 0;
  double latency_ms = 0;
};

// One thread's share of a LoadResult, merged after the threads join.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Sample> samples;
  std::string first_failure;

  void Fail(const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }
};

// Merges the tallies; latencies end up in reply-arrival order.
LoadResult Merge(std::vector<Tally>& tallies, Clock::time_point start) {
  LoadResult result;
  result.seconds = Ms(Clock::now() - start) / 1000.0;
  std::vector<Sample> samples;
  for (Tally& tally : tallies) {
    result.attempted += tally.attempted;
    result.failed += tally.failed;
    samples.insert(samples.end(), tally.samples.begin(), tally.samples.end());
    if (result.first_failure.empty()) {
      result.first_failure = tally.first_failure;
    }
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.done_ms < b.done_ms;
            });
  result.completed = samples.size();
  for (const Sample& sample : samples) {
    result.latency_ms.push_back(sample.latency_ms);
  }
  return result;
}

granmine::Result<std::unique_ptr<server::Client>> Connect(std::uint16_t port) {
  auto client = server::Client::Connect("127.0.0.1", port);
  if (client.ok()) {
    timeval timeout{kReplyTimeoutS, 0};
    ::setsockopt((*client)->fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));
  }
  return client;
}

enum class Verdict { kOk, kMismatch, kTransport };

// Checks one reply frame against the expected type, correlation id and
// canonical payload bytes.
Verdict Check(const granmine::Result<server::Frame>& frame, FrameType type,
              std::uint64_t corr, const std::vector<std::uint8_t>& expected,
              std::string* why) {
  if (!frame.ok()) {
    *why = "transport: " + frame.status().ToString();
    return Verdict::kTransport;
  }
  if (frame->type == FrameType::kErrorReply) {
    server::ErrorBody error;
    (void)server::DecodeError(frame->payload, &error);
    *why = "error reply: " + error.message;
    return Verdict::kMismatch;
  }
  std::vector<std::uint8_t> canonical;
  if (frame->type != type || frame->corr_id != corr ||
      !CanonicalPayload(frame->type, frame->payload, &canonical) ||
      canonical != expected) {
    *why = "reply bytes differ from the in-process expectation (frame type " +
           std::to_string(static_cast<unsigned>(frame->type)) + ", corr " +
           std::to_string(frame->corr_id) + ")";
    return Verdict::kMismatch;
  }
  return Verdict::kOk;
}

// Sends one frame and checks its reply; returns the verdict and the round
// trip.
Verdict RoundTrip(server::Client* client, FrameType type, std::uint64_t corr,
                  std::span<const std::uint8_t> payload, FrameType reply_type,
                  const std::vector<std::uint8_t>& expected, std::string* why,
                  double* rtt_ms) {
  std::vector<std::uint8_t> bytes;
  server::AppendFrame(&bytes, type, corr, payload);
  const Clock::time_point sent = Clock::now();
  if (granmine::Status st = client->SendBytes(bytes); !st.ok()) {
    *why = "transport: " + st.ToString();
    return Verdict::kTransport;
  }
  auto frame = client->ReadFrame();
  *rtt_ms = Ms(Clock::now() - sent);
  return Check(frame, reply_type, corr, expected, why);
}

}  // namespace

LoadResult RunMineClosed(std::uint16_t port, const Pool& pool,
                         int connections, double seconds,
                         std::uint64_t max_requests) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  // One shared cursor over the pool: the mix served is the pool in order,
  // whichever connection happens to be free.
  std::atomic<std::uint64_t> next{0};
  std::vector<Tally> tallies(static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Tally& tally = tallies[static_cast<std::size_t>(c)];
      auto client = Connect(port);
      if (!client.ok()) return tally.Fail(client.status().ToString());
      while (max_requests > 0 || Clock::now() < end) {
        const std::uint64_t k = next.fetch_add(1);
        if (max_requests > 0 && k >= max_requests) break;
        const MineItem& item = pool.mines[k % pool.mines.size()];
        std::string why;
        double rtt_ms = 0;
        ++tally.attempted;
        const Verdict verdict =
            RoundTrip(client->get(), FrameType::kMine, k + 1, item.request,
                      FrameType::kReply, item.expected, &why, &rtt_ms);
        if (verdict != Verdict::kOk) {
          tally.Fail(why);
          if (verdict == Verdict::kTransport) return;
          continue;
        }
        tally.samples.push_back({Ms(Clock::now() - start), rtt_ms});
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return Merge(tallies, start);
}

LoadResult RunMineOpen(std::uint16_t port, const Pool& pool, int connections,
                       double rate_rps, double seconds) {
  const std::size_t total =
      static_cast<std::size_t>(std::floor(seconds * rate_rps));
  // One thread runs every connection from a poll loop, so the generator
  // competes with the server for as little CPU as possible.
  struct Conn {
    std::unique_ptr<server::Client> client;
    std::vector<std::uint8_t> out;  // bytes not yet accepted by the socket
    server::FrameParser parser;
    bool dead = false;
  };
  std::vector<Conn> conns(static_cast<std::size_t>(connections));
  LoadResult result;
  for (Conn& conn : conns) {
    auto client = Connect(port);
    if (!client.ok()) {
      result.attempted = result.failed = 1;
      result.first_failure = client.status().ToString();
      return result;
    }
    conn.client = std::move(*client);
    ::fcntl(conn.client->fd(), F_SETFL,
            ::fcntl(conn.client->fd(), F_GETFL) | O_NONBLOCK);
  }
  std::vector<double> lateness(total, 0.0), latency(total, 0.0),
      done(total, 0.0);
  std::vector<char> ok(total, 0);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  auto due = [&](std::size_t n) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(n) / rate_rps));
  };
  const Clock::time_point give_up =
      due(total) + std::chrono::seconds(kReplyTimeoutS);
  auto fail = [&](Conn& conn, const std::string& why) {
    conn.dead = true;
    if (result.first_failure.empty()) result.first_failure = why;
  };

  std::size_t next = 0, answered = 0;
  std::vector<std::uint8_t> buffer(64 * 1024);
  std::vector<pollfd> fds(conns.size());
  while (answered < total) {
    Clock::time_point now = Clock::now();
    if (now > give_up) break;
    for (; next < total && due(next) <= now; ++next) {
      Conn& conn = conns[next % conns.size()];
      server::AppendFrame(&conn.out, FrameType::kMine, next + 1,
                          pool.mines[next % pool.mines.size()].request);
      lateness[next] = Ms(now - due(next));
    }
    bool all_dead = true;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      Conn& conn = conns[c];
      all_dead = all_dead && conn.dead;
      while (!conn.dead && !conn.out.empty()) {
        const ssize_t n = ::send(conn.client->fd(), conn.out.data(),
                                 conn.out.size(), MSG_NOSIGNAL);
        if (n < 0) {
          if (errno != EAGAIN && errno != EINTR) fail(conn, "transport: send");
          break;
        }
        conn.out.erase(conn.out.begin(), conn.out.begin() + n);
      }
      fds[c] = pollfd{conn.dead ? -1 : conn.client->fd(),
                      static_cast<short>(POLLIN |
                                         (conn.out.empty() ? 0 : POLLOUT)),
                      0};
    }
    if (all_dead) break;
    const Clock::duration wait =
        next < total ? std::max(due(next) - now, Clock::duration::zero())
                     : std::chrono::duration_cast<Clock::duration>(
                           std::chrono::milliseconds(100));
    const auto wait_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
    now = Clock::now();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      Conn& conn = conns[c];
      if (conn.dead || (fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      const ssize_t n = ::read(conn.client->fd(), buffer.data(), buffer.size());
      if (n <= 0) {
        if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
          fail(conn, "transport: connection lost");
        }
        continue;
      }
      conn.parser.Feed(std::span<const std::uint8_t>(
          buffer.data(), static_cast<std::size_t>(n)));
      while (true) {
        auto frame = conn.parser.Next();
        if (!frame.ok()) {
          fail(conn, "transport: " + frame.status().ToString());
          break;
        }
        if (!frame->has_value()) break;
        const std::size_t index = (**frame).corr_id - 1;
        if (index >= total) {
          fail(conn, "reply with an unknown correlation id");
          break;
        }
        ++answered;
        std::string why;
        if (Check(std::move(**frame), FrameType::kReply, index + 1,
                  pool.mines[index % pool.mines.size()].expected,
                  &why) != Verdict::kOk) {
          if (result.first_failure.empty()) result.first_failure = why;
          continue;
        }
        latency[index] = Ms(now - due(index));
        done[index] = Ms(now - start);
        ok[index] = 1;
      }
    }
  }

  std::vector<Tally> tallies(1);
  Tally& tally = tallies[0];
  for (std::size_t n = 0; n < total; ++n) {
    ++tally.attempted;
    if (n < next) result.lateness_ms.push_back(lateness[n]);
    if (!ok[n]) {
      ++tally.failed;
      continue;
    }
    tally.samples.push_back({done[n], latency[n]});
  }
  LoadResult merged = Merge(tallies, start);
  merged.lateness_ms = std::move(result.lateness_ms);
  merged.first_failure = result.first_failure;
  if (merged.failed > 0 && merged.first_failure.empty()) {
    merged.first_failure = "replies lost";
  }
  return merged;
}

LoadResult RunStreamClosed(std::uint16_t port, const Pool& pool,
                           int connections, double seconds,
                           std::uint64_t max_sessions) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const bool bounded = max_sessions > 0;
  std::atomic<std::uint64_t> next{0};  // shared cursor over the sessions
  std::vector<Tally> tallies(static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Tally& tally = tallies[static_cast<std::size_t>(c)];
      auto client = Connect(port);
      if (!client.ok()) return tally.Fail(client.status().ToString());
      std::uint64_t corr = 0;
      // Sends one frame, checks the reply; false = connection lost.
      auto call = [&](FrameType type, std::span<const std::uint8_t> payload,
                      FrameType reply_type,
                      const std::vector<std::uint8_t>& expected,
                      bool timed) {
        std::string why;
        double rtt_ms = 0;
        ++tally.attempted;
        const Verdict verdict = RoundTrip(client->get(), type, ++corr, payload,
                                          reply_type, expected, &why, &rtt_ms);
        if (verdict != Verdict::kOk) {
          tally.Fail(why);
          return verdict != Verdict::kTransport;
        }
        if (timed) tally.samples.push_back({Ms(Clock::now() - start), rtt_ms});
        return true;
      };
      while (bounded || Clock::now() < end) {
        const std::uint64_t k = next.fetch_add(1);
        if (bounded && k >= max_sessions) break;
        const StreamItem& item = pool.sessions[k % pool.sessions.size()];
        if (!call(FrameType::kStreamOpen, item.open_request, FrameType::kReply,
                  item.expected_open, false)) {
          return;
        }
        std::size_t f = 0;
        for (; f < item.frames.size() && (bounded || Clock::now() < end);
             ++f) {
          const std::string& lines = item.frames[f];
          if (!call(FrameType::kStreamIngest,
                    std::span<const std::uint8_t>(
                        reinterpret_cast<const std::uint8_t*>(lines.data()),
                        lines.size()),
                    FrameType::kStreamAck, item.expected_acks[f], true)) {
            return;
          }
        }
        // A session cut by the end of the run is dropped with the
        // connection instead of sealed.
        if (f < item.frames.size()) return;
        if (!call(FrameType::kStreamSeal, {}, FrameType::kStreamAck,
                  item.expected_seal, false)) {
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return Merge(tallies, start);
}

Probe RunPings(std::uint16_t port, int count) {
  Probe probe;
  auto client = Connect(port);
  if (!client.ok()) {
    probe.failed = 1;
    return probe;
  }
  for (int i = 0; i < count; ++i) {
    const Clock::time_point sent = Clock::now();
    if (!(*client)->Ping().ok()) {
      ++probe.failed;
      continue;
    }
    probe.rtt_us.push_back(Ms(Clock::now() - sent) * 1000.0);
  }
  return probe;
}

double SampleQueueDepth(server::Client* client) {
  auto response = client->Statusz();
  if (!response.ok() || response->type != FrameType::kReply) return -1;
  const std::string key = "\"queue_depth\":";
  const std::size_t at = response->out.find(key);
  if (at == std::string::npos) return -1;
  return std::atof(response->out.c_str() + at + key.size());
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double fraction = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * fraction;
}

std::vector<double> ChunkPercentiles(const std::vector<double>& latency_ms,
                                     double p) {
  constexpr std::size_t kMinChunk = 1000;
  const std::size_t chunks =
      std::clamp<std::size_t>(latency_ms.size() / kMinChunk, 1, 10);
  std::vector<double> values;
  for (std::size_t i = 0; i < chunks; ++i) {
    const auto from =
        static_cast<std::ptrdiff_t>(latency_ms.size() * i / chunks);
    const auto to =
        static_cast<std::ptrdiff_t>(latency_ms.size() * (i + 1) / chunks);
    values.push_back(Percentile(
        std::vector<double>(latency_ms.begin() + from, latency_ms.begin() + to),
        p));
  }
  return values;
}

}  // namespace perfbench
