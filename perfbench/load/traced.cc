#include "traced.h"

#include <chrono>
#include <cstdlib>

#include "granmine/common/math.h"
#include "granmine/constraint/propagation.h"
#include "granmine/io/cli_args.h"
#include "granmine/io/text_format.h"
#include "granmine/mining/reduction.h"
#include "granmine/mining/screening.h"
#include "granmine/mining/windows.h"
#include "granmine/obs/metrics.h"
#include "granmine/server/service.h"

namespace perfbench {

namespace server = granmine::server;
using server::FrameType;

namespace {

using Clock = std::chrono::steady_clock;

// The replayed layer calls run on their own trace track, after the request.
constexpr int kReplayTrack = 1;

// Request ids of the in-process path; one sequence per process.
std::uint64_t g_last_request = 0;

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// Decodes the single frame in `wire`, as the receiving side would.
server::Frame ParseOneFrame(const std::vector<std::uint8_t>& wire) {
  server::FrameParser parser;
  parser.Feed(wire);
  auto frame = parser.Next();
  if (!frame.ok() || !frame->has_value()) return server::Frame{};
  return std::move(**frame);
}

// The Engine::Mine call ServeMine makes, and the §5 steps Engine::Mine runs
// before its step-5 scan, re-issued as children of the service span.
void ReplayMine(granmine::Engine* engine, const server::MineCall& call,
                std::uint64_t request, std::uint64_t service_span,
                SpanLog* log, LayerCounts* counts) {
  std::vector<std::string> names;
  granmine::Result<granmine::EventStructure> structure =
      granmine::Status::Internal("unset");
  {
    ScopedSpan span(log, "io.parse_structure", service_span, request,
                    kReplayTrack);
    structure =
        granmine::ParseEventStructure(call.structure_text, engine->system(),
                                      &names);
  }
  granmine::EventTypeRegistry registry;
  granmine::Result<granmine::EventSequence> sequence =
      granmine::Status::Internal("unset");
  {
    ScopedSpan span(log, "io.parse_events", service_span, request,
                    kReplayTrack);
    sequence = granmine::ParseEventSequence(call.events_text, &registry);
  }
  auto reference = registry.Find(call.reference);
  auto confidence = granmine::ParseConfidence("confidence", call.confidence);
  if (!structure.ok() || !sequence.ok() || !reference.has_value() ||
      !confidence.ok()) {
    return;  // unreachable: the same call was just served successfully
  }
  granmine::DiscoveryProblem problem;
  problem.structure = &*structure;
  problem.reference_type = *reference;
  problem.min_confidence = *confidence;
  problem.allowed.assign(static_cast<std::size_t>(structure->variable_count()),
                         {});
  granmine::MineRequest mine;
  mine.problem = &problem;
  mine.sequence = &*sequence;

  std::uint64_t mine_span = 0;
  granmine::Result<granmine::MineResponse> response =
      granmine::Status::Internal("unset");
  {
    ScopedSpan span(log, "engine.mine", service_span, request, kReplayTrack);
    mine_span = span.id();
    response = engine->Mine(mine);
  }
  if (!response.ok()) return;
  const granmine::MiningReport& report = response->report;
  counts->tag_runs += report.tag_runs;
  counts->configurations += report.matcher_configurations;
  counts->candidates_before += report.candidates_before;
  counts->candidates_after += report.candidates_after_screening;

  const granmine::GranularitySystem& system = *engine->system();
  const granmine::VariableId root = *structure->FindRoot();
  granmine::Result<granmine::PropagationResult> propagation =
      granmine::Status::Internal("unset");
  {
    ScopedSpan span(log, "constraint.propagate", mine_span, request,
                    kReplayTrack);
    granmine::ConstraintPropagator propagator(&system.tables(),
                                              &system.coverage());
    propagation = propagator.Propagate(*structure);
  }
  if (!propagation.ok() || !propagation->consistent) return;
  std::vector<std::vector<granmine::EventTypeId>> allowed;
  granmine::EventSequence reduced;
  {
    ScopedSpan span(log, "mining.reduce", mine_span, request, kReplayTrack);
    allowed = granmine::ResolveAllowedTypes(problem, *sequence, root);
    reduced = granmine::ReduceSequence(*sequence, *propagation, allowed);
  }
  {
    ScopedSpan span(log, "mining.screen", mine_span, request, kReplayTrack);
    std::vector<granmine::RootWindows> windows;
    for (std::size_t index : reduced.OccurrencesOf(problem.reference_type)) {
      windows.push_back(granmine::ComputeRootWindows(
          *structure, root, *propagation, reduced.events()[index].time));
    }
    granmine::ScreenByWindows(*propagation, reduced, windows, root,
                              report.total_roots, problem.min_confidence,
                              &allowed);
  }
}

bool MineInProcess(granmine::Engine* engine, const MineItem& item,
                   SpanLog* log, LayerCounts* counts, double* request_us,
                   std::string* failure) {
  const std::uint64_t request = ++g_last_request;
  std::vector<std::uint8_t> wire, reply_wire;
  server::MineCall decoded;
  server::CallResult result;
  server::ReplyBody reply;
  std::uint64_t service_span = 0;
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan root(log, "request", 0, request);
    {
      ScopedSpan span(log, "server.wire.encode", root.id(), request);
      server::AppendFrame(&wire, FrameType::kMine, request,
                          server::EncodeMineCall(item.call));
    }
    {
      ScopedSpan span(log, "server.wire.decode", root.id(), request);
      (void)server::DecodeMineCall(ParseOneFrame(wire).payload, &decoded);
    }
    {
      ScopedSpan span(log, "service.serve_mine", root.id(), request);
      service_span = span.id();
      result = server::ServeMine(engine, decoded);
    }
    {
      ScopedSpan span(log, "server.reply", root.id(), request);
      server::ReplyBody body;
      body.exit_code = result.exit_code;
      body.out = std::move(result.out);
      body.err = std::move(result.err);
      body.diag = std::move(result.diag);
      server::AppendFrame(&reply_wire, FrameType::kReply, request,
                          server::EncodeReply(body));
      (void)server::DecodeReply(ParseOneFrame(reply_wire).payload, &reply);
    }
  }
  *request_us = Us(Clock::now() - start);
  if (CanonicalReply(reply.exit_code, reply.out, reply.err, reply.diag) !=
      item.expected) {
    *failure = "in-process mine reply differs from the expectation";
    return false;
  }
  if (log != nullptr) {
    ++counts->requests;
    counts->wire_bytes += wire.size() + reply_wire.size();
    ReplayMine(engine, decoded, request, service_span, log, counts);
  }
  return true;
}

// The OnlineMiner calls StreamSession::Ingest makes for one frame, re-issued
// on a twin session fed through a registry interned in the same order.
struct StreamTwin {
  std::unique_ptr<server::StreamSession> session;
  granmine::EventTypeRegistry registry;
  std::int64_t slide = 0;
  granmine::TimePoint next_snapshot = granmine::kInfinity;
};

void ReplayIngest(StreamTwin* twin, const std::string& lines,
                  std::uint64_t request, std::uint64_t service_span,
                  SpanLog* log, LayerCounts* counts) {
  granmine::OnlineMiner& miner = twin->session->miner();
  std::size_t from = 0;
  while (from < lines.size()) {
    std::size_t to = lines.find('\n', from);
    if (to == std::string::npos) to = lines.size();
    const std::string_view line(lines.data() + from, to - from);
    from = to + 1;
    granmine::Result<granmine::EventSequence> parsed =
        granmine::Status::Internal("unset");
    {
      ScopedSpan span(log, "io.parse_events", service_span, request,
                      kReplayTrack);
      parsed = granmine::ParseEventSequence(line, &twin->registry);
    }
    if (!parsed.ok()) return;
    for (const granmine::Event& event : parsed->events()) {
      granmine::Status ingested;
      {
        ScopedSpan span(log, "stream.ingest", service_span, request,
                        kReplayTrack);
        ingested = miner.Ingest(event);
      }
      if (!ingested.ok()) continue;
      ++counts->events_ingested;
      if (twin->next_snapshot == granmine::kInfinity) {
        twin->next_snapshot = event.time + twin->slide;
      }
    }
    while (miner.watermark() >= twin->next_snapshot) {
      ScopedSpan span(log, "stream.snapshot", service_span, request,
                      kReplayTrack);
      (void)miner.Snapshot();
      twin->next_snapshot += twin->slide;
    }
  }
  counts->resident_configs_sum +=
      static_cast<double>(miner.resident_configurations());
}

bool StreamInProcess(granmine::Engine* engine, const StreamItem& item,
                     SpanLog* log, LayerCounts* counts, double* frame_us,
                     std::string* failure) {
  std::unique_ptr<server::StreamSession> session;
  {
    ScopedSpan span(log, "stream.open", 0, ++g_last_request);
    session = server::StreamSession::Open(engine, item.open).session;
  }
  if (session == nullptr) {
    *failure = "in-process stream open failed";
    return false;
  }
  StreamTwin twin;
  if (log != nullptr) {
    // StreamSession::Open interns the reference, then the types pool.
    twin.session = server::StreamSession::Open(engine, item.open).session;
    twin.registry.Intern(item.open.reference);
    std::size_t from = 0;
    while (from <= item.open.types.size()) {
      std::size_t to = item.open.types.find(',', from);
      if (to == std::string::npos) to = item.open.types.size();
      if (to > from) {
        twin.registry.Intern(item.open.types.substr(from, to - from));
      }
      from = to + 1;
    }
    twin.slide = std::atoll(item.open.slide.c_str());
  }
  double total_us = 0;
  for (std::size_t f = 0; f < item.frames.size(); ++f) {
    const std::uint64_t request = ++g_last_request;
    std::vector<std::uint8_t> wire, reply_wire;
    server::StreamAckBody ack;
    std::uint64_t service_span = 0;
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan root(log, "request", 0, request);
      {
        ScopedSpan span(log, "server.wire.encode", root.id(), request);
        server::AppendFrame(&wire, FrameType::kStreamIngest, request,
                            server::EncodeIngestChunk(item.frames[f]));
      }
      server::Frame frame;
      {
        ScopedSpan span(log, "server.wire.decode", root.id(), request);
        frame = ParseOneFrame(wire);
      }
      server::StreamSession::IngestOutcome ingested;
      {
        ScopedSpan span(log, "service.stream_ingest", root.id(), request);
        service_span = span.id();
        ingested = session->Ingest(std::string_view(
            reinterpret_cast<const char*>(frame.payload.data()),
            frame.payload.size()));
      }
      {
        ScopedSpan span(log, "server.reply", root.id(), request);
        server::StreamAckBody body;
        body.accepted = ingested.accepted;
        body.rejected_late = ingested.rejected_late;
        body.exit_code = ingested.result.exit_code;
        body.out = std::move(ingested.result.out);
        body.err = std::move(ingested.result.err);
        server::AppendFrame(&reply_wire, FrameType::kStreamAck, request,
                            server::EncodeStreamAck(body));
        (void)server::DecodeStreamAck(ParseOneFrame(reply_wire).payload,
                                      &ack);
      }
    }
    total_us += Us(Clock::now() - start);
    if (server::EncodeStreamAck(ack) != item.expected_acks[f]) {
      *failure = "in-process stream ack differs from the expectation";
      return false;
    }
    if (log != nullptr) {
      ++counts->requests;
      counts->wire_bytes += wire.size() + reply_wire.size();
      ReplayIngest(&twin, item.frames[f], request, service_span, log, counts);
    }
  }
  *frame_us = total_us / static_cast<double>(item.frames.size());

  server::StreamAckBody expected_seal;
  (void)server::DecodeStreamAck(item.expected_seal, &expected_seal);
  if (session->Seal().out != expected_seal.out ||
      (twin.session != nullptr &&
       twin.session->Seal().out != expected_seal.out)) {
    *failure = "in-process stream seal differs from the expectation";
    return false;
  }
  return true;
}

}  // namespace

InProcessRun RunInProcess(granmine::Engine* engine, const Pool& pool,
                          SpanLog* log, LayerCounts* counts) {
  InProcessRun run;
  double total_us = 0;
  std::uint64_t requests = 0;
  for (const MineItem& item : pool.mines) {
    double us = 0;
    if (!MineInProcess(engine, item, log, counts, &us, &run.failure)) {
      run.ok = false;
      return run;
    }
    run.item_us.push_back(us);
    total_us += us;
    ++requests;
  }
  for (const StreamItem& item : pool.sessions) {
    double frame_us = 0;
    if (!StreamInProcess(engine, item, log, counts, &frame_us, &run.failure)) {
      run.ok = false;
      return run;
    }
    run.item_us.push_back(frame_us);
    total_us += frame_us * static_cast<double>(item.frames.size());
    requests += item.frames.size();
  }
  run.request_us = requests > 0 ? total_us / static_cast<double>(requests) : 0;
  return run;
}

double SealedLookupFraction(granmine::Engine* engine, const Pool& pool) {
  granmine::obs::MetricsRegistry& metrics =
      granmine::obs::MetricsRegistry::Global();
  const bool was_enabled = metrics.enabled();
  metrics.Reset();
  metrics.set_enabled(true);
  LayerCounts unused;
  (void)RunInProcess(engine, pool, nullptr, &unused);
  metrics.set_enabled(was_enabled);
  const granmine::obs::MetricsSnapshot snapshot = metrics.Snapshot();
  auto count = [&](const char* result) -> double {
    const granmine::obs::MetricValue* value = snapshot.Find(
        "granmine_tables_lookups_total",
        std::string("result=\"") + result + "\"");
    return value != nullptr ? static_cast<double>(value->value) : 0.0;
  };
  const double sealed = count("sealed");
  const double all = sealed + count("hit") + count("miss");
  return all > 0 ? sealed / all : 0;
}

}  // namespace perfbench
