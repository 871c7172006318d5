// granmine_load — the end-to-end serving benchmark's load generator.
//
//   granmine_load --workload mine-scan|mine-screened|stream-ingest
//                 --seed N --seconds S --trace 0|1
//                 --server PATH --server-flags "FLAGS"
//                 --mine-scan SPEC --mine-screened SPEC --stream-ingest SPEC
//                 [--trace-out FILE]
//                 [--self-test corrupt-expectation|stalled-responder]
//
// Spawns a cold granmine_serve, drives it over the wire protocol and checks
// every reply byte for byte against expectations computed in-process on a
// second engine. With --trace 0 it prints the end-to-end metrics, with
// --trace 1 the per-layer metrics of a traced in-process run; the last line
// of stdout is one JSON object (perfbench/README.md).

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "drive.h"
#include "granmine/engine/engine.h"
#include "granmine/granularity/system.h"
#include "selftest.h"
#include "server_process.h"
#include "traced.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// An open-loop generator that sent its median request later than this, or
// any request later than kMaxLatenessMs, did not deliver the offered rate on
// schedule: the run is invalid. Shorter delays (the host's wakeup jitter)
// are charged to latency, which runs from the due time.
constexpr double kMaxLatenessP50Ms = 1.0;
constexpr double kMaxLatenessMs = 1000.0;
constexpr int kInvalidRunExit = 3;

// Threads computing the expected replies before the server is driven.
constexpr int kExpectationThreads = 4;

// Cold server starts of an end-to-end run; setup_s is their median.
constexpr int kSetupStarts = 3;

// The traced run follows the head of the pool: this many mine requests or
// stream sessions.
constexpr std::ptrdiff_t kTracedMines = 64;
constexpr std::ptrdiff_t kTracedSessions = 4;

// A span's replayed children may add up to this share more than the span
// itself (timing noise) before its layer breakdown is rejected.
constexpr double kReplayTolerance = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string server;
  std::vector<std::string> server_flags;
  std::map<std::string, std::string> specs;
  std::string trace_out;
  std::string self_test;
};

int Usage(const char* why) {
  std::fprintf(stderr, "granmine_load: %s (see perfbench/README.md)\n", why);
  return 64;
}

std::vector<std::string> SplitWords(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> words;
  std::string word;
  while (in >> word) words.push_back(word);
  return words;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--server") {
      args->server = value;
    } else if (flag == "--server-flags") {
      args->server_flags = SplitWords(value);
    } else if (flag == "--mine-scan" || flag == "--mine-screened" ||
               flag == "--stream-ingest") {
      args->specs[flag.substr(2)] = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--self-test") {
      args->self_test = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         !args->server.empty() &&
         args->specs.count(args->workload) > 0;
}

// One printed metric: human line now, JSON entry at the end.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string ResultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // Shortest round-trip digits: the value exactly as measured.
    char digits[64];
    const auto written =
        std::to_chars(digits, digits + sizeof(digits), metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + std::string(digits, written.ptr) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return json + "}}";
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("  %-32s %14.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

// The in-process engine (the second engine of the reply checks and the
// traced run), built and frozen here: timed as granularity.freeze_s.
granmine::Result<std::unique_ptr<granmine::Engine>> MakeEngine(
    const Args& args, double* freeze_s) {
  GM_ASSIGN_OR_RETURN(granmine::EngineOptions options,
                      EngineOptionsForServerFlags(args.server_flags));
  const Clock::time_point start = Clock::now();
  GM_ASSIGN_OR_RETURN(std::unique_ptr<granmine::Engine> engine,
                      granmine::Engine::CreateGregorian(options));
  GM_RETURN_NOT_OK(engine->Freeze());
  *freeze_s = std::chrono::duration<double>(Clock::now() - start).count();
  return engine;
}

// What both kinds of run start from: the server under test with the setup
// times of its cold starts, and the in-process engine with the pool's
// expected replies computed on it.
struct Prepared {
  std::unique_ptr<ServerProcess> server;
  std::vector<double> setup_s;
  std::unique_ptr<granmine::Engine> engine;
  double freeze_s = 0;
};

// Starts `server_starts` cold servers one after another, keeping the last
// one running, then builds the in-process engine and the expectations.
granmine::Result<Prepared> Prepare(const Args& args, int server_starts,
                                   Pool* pool) {
  Prepared prepared;
  for (int i = 0; i < server_starts; ++i) {
    prepared.server.reset();  // stop the previous one before the next start
    GM_ASSIGN_OR_RETURN(prepared.server,
                        ServerProcess::Start(args.server, args.server_flags));
    prepared.setup_s.push_back(prepared.server->setup_s());
  }
  GM_ASSIGN_OR_RETURN(prepared.engine, MakeEngine(args, &prepared.freeze_s));
  GM_RETURN_NOT_OK(ComputeExpectations(prepared.engine.get(), pool,
                                       kExpectationThreads));
  return prepared;
}

// Runs the workload's load shape for `seconds` against `port`.
LoadResult RunLoad(const Settings& settings, const Pool& pool,
                   std::uint16_t port, double seconds) {
  if (settings.stream) {
    return RunStreamClosed(port, pool, settings.connections, seconds);
  }
  if (settings.rate_rps > 0) {
    return RunMineOpen(port, pool, settings.connections, settings.rate_rps,
                       seconds);
  }
  return RunMineClosed(port, pool, settings.connections, seconds);
}

// A few requests per connection before timing starts, through the
// closed-loop drivers (replies verified like any other).
LoadResult Warmup(const Settings& settings, const Pool& pool,
                  std::uint16_t port) {
  const auto connections = static_cast<std::uint64_t>(settings.connections);
  if (settings.stream) {
    return RunStreamClosed(port, pool, settings.connections, 0, connections);
  }
  return RunMineClosed(port, pool, settings.connections, 0, 4 * connections);
}

// Flips one byte of the first expected reply: every reply to that request
// must then be counted as a mismatch.
void CorruptExpectation(Pool* pool) {
  std::vector<std::uint8_t>& bytes = pool->mines.empty()
                                         ? pool->sessions[0].expected_acks[0]
                                         : pool->mines[0].expected;
  bytes.back() ^= 0x01;
}

int RunEndToEnd(const Args& args, const Settings& settings, Pool* pool) {
  auto prepared = Prepare(args, kSetupStarts, pool);
  if (!prepared.ok()) return Usage(prepared.status().ToString().c_str());
  if (args.self_test == "corrupt-expectation") CorruptExpectation(pool);

  ServerProcess& process = *prepared->server;
  const LoadResult warm = Warmup(settings, *pool, process.port());
  const double cpu_before = process.CpuMs();
  const LoadResult load =
      RunLoad(settings, *pool, process.port(), args.seconds);
  const double cpu_ms = process.CpuMs() - cpu_before;
  const double rss_mb = process.PeakRssMb();
  process.Stop();

  const std::uint64_t attempted = warm.attempted + load.attempted;
  const std::uint64_t failed = warm.failed + load.failed;
  std::printf("workload %s seed %llu: %llu requests in %.3f s, %zu latency "
              "samples, %llu of %llu frames failed\n",
              settings.name.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(load.completed), load.seconds,
              load.latency_ms.size(), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  if (failed > 0) {
    std::printf("first failure: %s\n", warm.failed > 0
                                            ? warm.first_failure.c_str()
                                            : load.first_failure.c_str());
  }
  std::printf("latency by chunk of replies, p50 / p99 ms:");
  const std::vector<double> chunk_p50 = ChunkPercentiles(load.latency_ms, 0.5);
  const std::vector<double> chunk_p99 = ChunkPercentiles(load.latency_ms, 0.99);
  for (std::size_t i = 0; i < chunk_p50.size(); ++i) {
    std::printf(" %.3f/%.3f", chunk_p50[i], chunk_p99[i]);
  }
  std::printf("\n");
  if (!load.lateness_ms.empty()) {
    const double late_p50 = Percentile(load.lateness_ms, 0.5);
    const double late_max =
        *std::max_element(load.lateness_ms.begin(), load.lateness_ms.end());
    std::printf("generator lateness: p50 %.3f ms (limit %.1f), p99 %.3f ms, "
                "max %.3f ms (limit %.0f)\n",
                late_p50, kMaxLatenessP50Ms,
                Percentile(load.lateness_ms, 0.99), late_max, kMaxLatenessMs);
    if (late_p50 > kMaxLatenessP50Ms || late_max > kMaxLatenessMs) {
      std::fprintf(stderr,
                   "granmine_load: invalid run: the generator fell behind "
                   "its schedule\n");
      return kInvalidRunExit;
    }
  }
  const double completed = static_cast<double>(std::max<std::uint64_t>(
      load.completed, 1));
  const std::vector<Metric> metrics = {
      {"throughput_rps", static_cast<double>(load.completed) / load.seconds,
       "1/s"},
      {"latency_p50_ms", Percentile(load.latency_ms, 0.5), "ms"},
      {"latency_p99_ms", Percentile(load.latency_ms, 0.99), "ms"},
      {"cpu_ms_per_req", cpu_ms / completed, "ms"},
      {"server_rss_mb", rss_mb, "MiB"},
      {"setup_s", Median(prepared->setup_s), "s"},
  };
  PrintMetrics(metrics);
  std::printf("  %-32s %14.6f %s\n", "failed_frac",
              static_cast<double>(failed) /
                  static_cast<double>(std::max<std::uint64_t>(attempted, 1)),
              "ratio (the result's failed / attempted)");
  std::printf("%s\n",
              ResultJson(failed == 0, attempted, failed, metrics).c_str());
  return 0;
}

int RunTraced(const Args& args, const Settings& settings, Pool* pool) {
  auto prepared = Prepare(args, 1, pool);
  if (!prepared.ok()) return Usage(prepared.status().ToString().c_str());
  ServerProcess& process = *prepared->server;
  granmine::Engine* engine = prepared->engine.get();
  const std::uint16_t port = process.port();
  const LoadResult warm = Warmup(settings, *pool, port);

  // Admission queue depth under the workload's load, sampled at a low rate
  // on one extra connection.
  LoadResult load;
  std::vector<double> depths;
  {
    std::thread driver(
        [&] { load = RunLoad(settings, *pool, port, args.seconds / 2); });
    auto sampler = granmine::server::Client::Connect("127.0.0.1", port);
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(args.seconds / 2));
    while (sampler.ok() && Clock::now() < end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      const double depth = SampleQueueDepth(sampler->get());
      if (depth >= 0) depths.push_back(depth);
    }
    driver.join();
  }
  // The traced requests: the head of the pool.
  Pool head;
  const auto mines = std::min(kTracedMines, std::ssize(pool->mines));
  const auto sessions = std::min(kTracedSessions, std::ssize(pool->sessions));
  head.mines.assign(pool->mines.begin(), pool->mines.begin() + mines);
  head.sessions.assign(pool->sessions.begin(),
                       pool->sessions.begin() + sessions);

  // Idle-server round trips: pings, and the traced requests one at a time
  // on one connection (every traced mine request in pool order, or the
  // ingest frames of session 0).
  const Probe pings = RunPings(port, 200);
  const LoadResult serial =
      settings.stream
          ? RunStreamClosed(port, head, 1, 0, 1)
          : RunMineClosed(port, head, 1, 0, head.mines.size());
  process.Stop();

  // In-process: alternate untraced and traced passes over the pool for the
  // rest of the time budget (at least two of each).
  SpanLog log;
  LayerCounts counts;
  std::vector<double> untraced_us;
  std::vector<double> item_us(head.mines.empty() ? 1 : head.mines.size(),
                              0.0);
  int passes = 0;
  const Clock::time_point budget_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds / 2));
  std::string failure;
  for (; passes < 2 || Clock::now() < budget_end; ++passes) {
    InProcessRun plain = RunInProcess(engine, head, nullptr, &counts);
    InProcessRun traced = RunInProcess(engine, head, &log, &counts);
    if (!plain.ok || !traced.ok) {
      failure = plain.ok ? traced.failure : plain.failure;
      break;
    }
    untraced_us.push_back(plain.request_us);
    for (std::size_t i = 0; i < item_us.size(); ++i) {
      item_us[i] += plain.item_us[i];
    }
  }
  const double sealed_frac = SealedLookupFraction(engine, head);

  const auto totals = log.Totals();
  auto total = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const double requests = static_cast<double>(
      std::max<std::uint64_t>(counts.requests, 1));
  auto per_request = [&](const char* name) {
    return total(name).total_us / requests;
  };
  auto per_call = [&](const char* name) {
    const SpanTotals t = total(name);
    return t.count > 0 ? t.total_us / static_cast<double>(t.count) : 0.0;
  };
  const double scan_us = total("engine.mine").self_us;
  const double traced_request_us = per_request("request");
  const double untraced_request_us = Mean(untraced_us);
  // The in-process time of the requests sent one at a time: the traced
  // mine requests, or session 0.
  const double inprocess_us = Mean(item_us) / std::max(passes, 1);
  const double tag_runs = static_cast<double>(counts.tag_runs);

  const std::vector<Metric> metrics = {
      {"server.wire.encode_us", per_request("server.wire.encode"), "us"},
      {"server.wire.decode_us", per_request("server.wire.decode"), "us"},
      {"server.reply_us", per_request("server.reply"), "us"},
      {"server.wire.bytes_per_req",
       static_cast<double>(counts.wire_bytes) / requests, "bytes"},
      {"server.ping_us", Median(pings.rtt_us), "us"},
      {"server.loop_overhead_us",
       Mean(serial.latency_ms) * 1000.0 - inprocess_us, "us"},
      {"io.parse_structure_us", per_request("io.parse_structure"), "us"},
      {"io.parse_events_us", per_request("io.parse_events"), "us"},
      {"engine.mine_us", per_request("engine.mine"), "us"},
      {"engine.admission.queue_depth", Mean(depths), "count"},
      {"constraint.propagate_us", per_request("constraint.propagate"), "us"},
      {"mining.reduce_us", per_request("mining.reduce"), "us"},
      {"mining.screen_us", per_request("mining.screen"), "us"},
      {"mining.screen.keep_ratio",
       counts.candidates_before > 0
           ? static_cast<double>(counts.candidates_after) /
                 static_cast<double>(counts.candidates_before)
           : 0.0,
       "ratio"},
      {"mining.scan_us", scan_us / requests, "us"},
      {"tag.runs_per_req", tag_runs / requests, "count"},
      {"tag.configs_per_run",
       tag_runs > 0 ? static_cast<double>(counts.configurations) / tag_runs
                    : 0.0,
       "count"},
      {"tag.us_per_run", tag_runs > 0 ? scan_us / tag_runs : 0.0, "us"},
      {"stream.open_us", per_call("stream.open"), "us"},
      {"stream.ingest_us_per_event",
       counts.events_ingested > 0
           ? total("stream.ingest").total_us /
                 static_cast<double>(counts.events_ingested)
           : 0.0,
       "us"},
      {"stream.resident_configs", counts.resident_configs_sum / requests,
       "count"},
      {"stream.snapshot_us", per_call("stream.snapshot"), "us"},
      {"service.render_us",
       (total("service.serve_mine").self_us +
        total("service.stream_ingest").self_us) /
           requests,
       "us"},
      {"granularity.freeze_s", prepared->freeze_s, "s"},
      {"granularity.sealed_lookup_frac", sealed_frac, "ratio"},
      {"trace.overhead_frac", traced_request_us / untraced_request_us - 1.0,
       "ratio"},
  };

  // Self-time accounting. The replayed children of a service or engine span
  // re-issue calls the span made internally, timed separately; they account
  // for part of the span only if they did not take longer than it did.
  std::string accounting;
  for (const auto& [name, t] : totals) {
    if (t.children_us == 0 || name == "request") continue;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  %-22s children %6.2f%% of its time, %llu of %llu spans "
                  "overrun\n",
                  name.c_str(), 100.0 * t.children_us / t.total_us,
                  static_cast<unsigned long long>(t.overrun),
                  static_cast<unsigned long long>(t.count));
    accounting += line;
    if (failure.empty() && t.self_us < -kReplayTolerance * t.total_us) {
      failure = "self-time accounting: the replayed children of " + name +
                " took longer than " + name + " itself";
    }
  }
  const std::uint64_t failed =
      warm.failed + load.failed + pings.failed + serial.failed +
      (failure.empty() ? 0 : 1);
  const std::uint64_t attempted = warm.attempted + load.attempted +
                                  pings.rtt_us.size() + pings.failed +
                                  serial.attempted + 1;
  std::printf("traced workload %s seed %llu: %llu traced requests over %d "
              "passes, %zu spans, %zu statusz samples\n",
              settings.name.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(counts.requests), passes,
              log.spans().size(), depths.size());
  std::printf("traced request %.3f us, untraced %.3f us; self-time "
              "accounting (replays may exceed a span by %.0f%%):\n%s",
              traced_request_us, untraced_request_us,
              100.0 * kReplayTolerance, accounting.c_str());
  if (!failure.empty()) {
    std::printf("traced run failure: %s\n", failure.c_str());
  }
  if (failed > 0 && failure.empty()) {
    std::printf("first failure: %s\n",
                warm.failed > 0   ? warm.first_failure.c_str()
                : load.failed > 0 ? load.first_failure.c_str()
                                  : serial.first_failure.c_str());
  }
  PrintMetrics(metrics);
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << log.ChromeTraceJson();
    std::printf("trace: %s\n", args.trace_out.c_str());
  }
  std::printf("%s\n",
              ResultJson(failed == 0, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  auto settings = ParseSettings(args.workload, args.specs.at(args.workload));
  if (!settings.ok()) return Usage(settings.status().ToString().c_str());
  // Pools need the Gregorian family's b-day only; no freeze.
  std::unique_ptr<granmine::GranularitySystem> system =
      granmine::GranularitySystem::Gregorian();
  Pool pool = BuildPool(*settings, args.seed, *system);
  if (args.self_test == "stalled-responder") {
    if (settings->stream || settings->rate_rps <= 0) {
      return Usage("the stalled-responder self-test needs an open-loop "
                   "mine workload");
    }
    double freeze_s = 0;
    auto engine = MakeEngine(args, &freeze_s);
    if (!engine.ok()) return Usage(engine.status().ToString().c_str());
    if (granmine::Status st =
            ComputeExpectations(engine->get(), &pool, kExpectationThreads);
        !st.ok()) {
      return Usage(st.ToString().c_str());
    }
    return StalledResponderSelfTest(pool, settings->rate_rps);
  }
  return args.trace ? RunTraced(args, *settings, &pool)
                    : RunEndToEnd(args, *settings, &pool);
}
