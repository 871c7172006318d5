#include "workload.h"

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "granmine/io/cli_args.h"
#include "granmine/io/text_format.h"
#include "granmine/sequence/generators.h"
#include "granmine/server/service.h"

namespace perfbench {

using granmine::Result;
using granmine::Status;
namespace server = granmine::server;

namespace {

// SplitMix64: decorrelates the per-request generator seeds derived from the
// benchmark seed.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<std::string> EventLines(const granmine::GranularitySystem& system,
                                    int trading_days, std::uint64_t seed) {
  granmine::StockWorkloadOptions options;
  options.trading_days = trading_days;
  options.seed = seed;
  granmine::Workload workload = granmine::MakeStockWorkload(system, options);
  std::vector<std::string> lines;
  for (const granmine::Event& event : workload.sequence.events()) {
    lines.push_back(granmine::FormatTimePoint(event.time) + " " +
                    workload.registry.name(event.type) + "\n");
  }
  return lines;
}

Status Failed(const std::string& what, const std::string& err) {
  return Status::Invalid("workload request failed in-process (" + what +
                         "): " + err);
}

}  // namespace

Result<Settings> ParseSettings(const std::string& name,
                               const std::string& spec) {
  Settings settings;
  settings.name = name;
  settings.stream = name == "stream-ingest";
  std::istringstream in(spec);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::Invalid("bad setting '" + token + "' (want key=value)");
    }
    const std::string key = token.substr(0, eq), value = token.substr(eq + 1);
    if (key == "days") {
      settings.trading_days = std::atoi(value.c_str());
    } else if (key == "confidence") {
      settings.confidence = value;
    } else if (key == "connections") {
      settings.connections = std::atoi(value.c_str());
    } else if (key == "pool") {
      settings.pool = std::atoi(value.c_str());
    } else if (key == "rate_rps") {
      settings.rate_rps = std::atof(value.c_str());
    } else if (key == "types") {
      settings.types = value;
    } else if (key == "theta") {
      settings.theta = value;
    } else if (key == "window_s") {
      settings.window_s = value;
    } else if (key == "slide_s") {
      settings.slide_s = value;
    } else if (key == "frame_lines") {
      settings.frame_lines = std::atoi(value.c_str());
    } else {
      return Status::Invalid("unknown setting '" + key + "'");
    }
  }
  if (settings.trading_days <= 0 || settings.connections <= 0 ||
      settings.pool <= 0 || (settings.stream && settings.frame_lines <= 0)) {
    return Status::Invalid("settings for " + name +
                           " need days, connections and pool" +
                           (settings.stream ? " and frame_lines" : ""));
  }
  return settings;
}

Pool BuildPool(const Settings& settings, std::uint64_t seed,
               const granmine::GranularitySystem& system) {
  Pool pool;
  for (int i = 0; i < settings.pool; ++i) {
    const std::uint64_t item_seed =
        Mix(seed * 1000003ULL + static_cast<std::uint64_t>(i));
    std::vector<std::string> lines =
        EventLines(system, settings.trading_days, item_seed);
    if (!settings.stream) {
      MineItem item;
      item.call.structure_text = kStructure;
      item.call.reference = kReference;
      item.call.confidence = settings.confidence;
      for (const std::string& line : lines) item.call.events_text += line;
      item.request = server::EncodeMineCall(item.call);
      pool.mines.push_back(std::move(item));
      continue;
    }
    StreamItem item;
    item.open.structure_text = kStructure;
    item.open.reference = kReference;
    item.open.window = settings.window_s;
    item.open.slide = settings.slide_s;
    item.open.theta = settings.theta;
    item.open.types = settings.types;
    item.open_request = server::EncodeStreamOpenCall(item.open);
    for (std::size_t at = 0; at < lines.size();
         at += static_cast<std::size_t>(settings.frame_lines)) {
      std::string frame;
      for (std::size_t j = at;
           j < lines.size() &&
           j < at + static_cast<std::size_t>(settings.frame_lines);
           ++j) {
        frame += lines[j];
      }
      item.frames.push_back(std::move(frame));
    }
    pool.sessions.push_back(std::move(item));
  }
  return pool;
}

std::vector<std::uint8_t> CanonicalReply(std::int32_t exit_code,
                                         const std::string& out,
                                         const std::string& err,
                                         const std::string& diag) {
  server::ReplyBody body;
  body.exit_code = exit_code;
  body.out = out;
  body.err = err;
  body.diag = diag;
  // "stats: stop-cause C, elapsed 12.34 ms, governor steps N\n"
  const std::size_t at = body.diag.find("elapsed ");
  if (at != std::string::npos) {
    const std::size_t from = at + 8;
    const std::size_t to = body.diag.find(" ms", from);
    if (to != std::string::npos) body.diag.replace(from, to - from, "*");
  }
  return server::EncodeReply(body);
}

bool CanonicalPayload(server::FrameType type,
                      std::span<const std::uint8_t> payload,
                      std::vector<std::uint8_t>* out) {
  if (type != server::FrameType::kReply) {
    out->assign(payload.begin(), payload.end());
    return true;
  }
  server::ReplyBody body;
  if (!server::DecodeReply(payload, &body).ok()) return false;
  *out = CanonicalReply(body.exit_code, body.out, body.err, body.diag);
  return true;
}

namespace {

Status ExpectMine(granmine::Engine* engine, MineItem* item) {
  server::CallResult result = server::ServeMine(engine, item->call);
  if (result.exit_code != 0) return Failed("mine", result.err);
  item->expected =
      CanonicalReply(result.exit_code, result.out, result.err, result.diag);
  return Status::OK();
}

Status ExpectSession(granmine::Engine* engine, StreamItem* item) {
  auto opened = server::StreamSession::Open(engine, item->open);
  if (opened.session == nullptr) {
    return Failed("stream open", opened.result.err);
  }
  item->expected_open = CanonicalReply(0, "", "", "");
  item->expected_acks.clear();
  for (const std::string& frame : item->frames) {
    auto ingested = opened.session->Ingest(frame);
    if (ingested.result.exit_code != 0 || ingested.rejected_late != 0) {
      return Failed("stream ingest", ingested.result.err);
    }
    server::StreamAckBody ack;
    ack.accepted = ingested.accepted;
    ack.rejected_late = ingested.rejected_late;
    ack.exit_code = ingested.result.exit_code;
    ack.out = std::move(ingested.result.out);
    ack.err = std::move(ingested.result.err);
    item->expected_acks.push_back(server::EncodeStreamAck(ack));
  }
  server::CallResult sealed = opened.session->Seal();
  if (sealed.exit_code != 0) return Failed("stream seal", sealed.err);
  server::StreamAckBody ack;
  ack.accepted = opened.session->accepted_total();
  ack.rejected_late = opened.session->dropped_late();
  ack.exit_code = sealed.exit_code;
  ack.out = std::move(sealed.out);
  ack.err = std::move(sealed.err);
  item->expected_seal = server::EncodeStreamAck(ack);
  return Status::OK();
}

}  // namespace

Status ComputeExpectations(granmine::Engine* engine, Pool* pool,
                           int threads) {
  // Items are independent; workers claim them through one cursor and each
  // writes only its own item's expectation.
  const std::size_t items = pool->mines.size() + pool->sessions.size();
  std::atomic<std::size_t> next{0};
  std::vector<Status> failures(static_cast<std::size_t>(threads),
                               Status::OK());
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = next.fetch_add(1); i < items;
           i = next.fetch_add(1)) {
        Status status =
            i < pool->mines.size()
                ? ExpectMine(engine, &pool->mines[i])
                : ExpectSession(engine,
                                &pool->sessions[i - pool->mines.size()]);
        if (!status.ok()) {
          failures[static_cast<std::size_t>(t)] = std::move(status);
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (Status& failure : failures) {
    if (!failure.ok()) return failure;
  }
  return Status::OK();
}

Result<granmine::EngineOptions> EngineOptionsForServerFlags(
    const std::vector<std::string>& flags) {
  std::vector<const char*> argv = {"granmine_serve", "serve"};
  for (const std::string& flag : flags) argv.push_back(flag.c_str());
  GM_ASSIGN_OR_RETURN(granmine::CliArgs args,
                      granmine::ParseCliArgs(static_cast<int>(argv.size()),
                                             argv.data()));
  GM_ASSIGN_OR_RETURN(granmine::EngineFlags engine_flags,
                      granmine::ParseEngineFlags(args));
  granmine::EngineOptions options;
  options.num_threads = engine_flags.threads.value_or(1);
  return options;
}

}  // namespace perfbench
