#include "granmine/engine/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

#include "granmine/common/check.h"
#include "granmine/obs/context.h"
#include "granmine/obs/obs.h"
#include "granmine/persist/bytes.h"
#include "granmine/persist/codecs.h"
#include "granmine/persist/snapshot.h"
#include "granmine/persist/stream_codec.h"

namespace granmine {

namespace {

/// Reorder-buffer cap forced onto a stream session opened in degraded mode
/// when the caller left the buffer unbounded.
constexpr std::size_t kDegradedStreamBufferCap = 4096;

}  // namespace

Engine::Engine(std::unique_ptr<GranularitySystem> system,
               EngineOptions options)
    : system_(std::move(system)),
      options_(options),
      metrics_(&obs::MetricsRegistry::Global()),
      trace_(&obs::TraceCollector::Global()) {
  if (Executor::Resolve(options.num_threads) > 1) {
    executor_ = std::make_unique<Executor>(options.num_threads);
  }
  if (options.admission.enabled) {
    admission_ = std::make_unique<AdmissionController>(options.admission);
  }
  // The flight recorder is attached unconditionally: it taps the structured
  // record stream before the level filter, so the cost of keeping it live is
  // one string render per (rare) logged event, and a post-mortem dump is
  // available even when the logger itself was never enabled for output.
  recorder_ = std::make_unique<obs::FlightRecorder>();
  obs::EventLog::Global().AttachRecorder(recorder_.get());
}

Engine::~Engine() {
  obs::EventLog::Global().DetachRecorder(recorder_.get());
}

Status Engine::Freeze() {
  std::call_once(freeze_once_, [this] {
    GM_TRACE_SPAN("engine_freeze");
    freeze_status_ = system_->Freeze();
  });
  return freeze_status_;
}

void Engine::BeginRequest(std::uint64_t id, RequestClass cls) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  inflight_.push_back(
      InflightRecord{id, cls, std::chrono::steady_clock::now(), nullptr});
}

void Engine::SetRequestGovernor(std::uint64_t id,
                                const ResourceGovernor* governor) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  for (InflightRecord& record : inflight_) {
    if (record.id == id) {
      record.governor = governor;
      return;
    }
  }
}

void Engine::EndRequest(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  inflight_.erase(std::remove_if(inflight_.begin(), inflight_.end(),
                                 [id](const InflightRecord& record) {
                                   return record.id == id;
                                 }),
                  inflight_.end());
}

void Engine::DumpFlightRecorder(std::string_view reason,
                                std::string_view stop_cause,
                                std::uint64_t request_id) const {
  if (recorder_ == nullptr) return;
  obs::EventLog& log = obs::EventLog::Global();
  // Dumping is an *output* concern, so it follows the logger's master
  // switch; the recorder itself keeps accumulating regardless, ready for
  // the next enabled run or a test's direct RenderDump call.
  if (!log.enabled()) return;
  if (log.sink_open()) {
    log.WriteRawLine(recorder_->RenderDumpJson(reason, stop_cause, request_id));
  } else {
    std::fputs(
        recorder_->RenderDumpText(reason, stop_cause, request_id).c_str(),
        stderr);
  }
}

Result<std::unique_ptr<Engine>> Engine::Create(
    std::unique_ptr<GranularitySystem> system, EngineOptions options) {
  if (system == nullptr) {
    return Status::Invalid("Engine::Create requires a granularity system");
  }
  if (options.enable_metrics) {
    obs::MetricsRegistry::Global().set_enabled(true);
  }
  if (options.enable_tracing) {
    obs::TraceCollector::Global().set_enabled(true);
  }
  if (options.enable_logging || !options.log_path.empty()) {
    obs::EventLog::Global().set_min_level(options.log_level);
    obs::EventLog::Global().set_enabled(true);
  }
  if (!options.log_path.empty()) {
    GM_RETURN_NOT_OK(obs::EventLog::Global().OpenJsonFile(options.log_path));
  }
  return std::unique_ptr<Engine>(new Engine(std::move(system), options));
}

Result<std::unique_ptr<Engine>> Engine::CreateGregorian(
    EngineOptions options) {
  return Create(GranularitySystem::Gregorian(), options);
}

std::unique_ptr<ResourceGovernor> Engine::MakeGovernor(
    std::optional<GovernorLimits> limits) const {
  const GovernorLimits resolved = limits.value_or(options_.limits);
  if (resolved.deadline_ms <= 0 && resolved.max_steps == 0 &&
      resolved.memory_budget_bytes == 0) {
    return nullptr;
  }
  return std::make_unique<ResourceGovernor>(resolved);
}

Result<MineResponse> Engine::Mine(const MineRequest& request) {
  if (request.problem == nullptr || request.sequence == nullptr) {
    return Status::Invalid("MineRequest needs a problem and a sequence");
  }
  // The request id is minted at admission time and installed as this
  // thread's RequestScope, so the freeze/admission/mine spans and every log
  // line fired below (including from pool workers, which re-install the
  // scope from MinerOptions::request_id) attribute to this request.
  const std::uint64_t request_id = MintRequestId();
  obs::RequestScope request_scope(request_id);
  GM_TRACE_SPAN("engine_mine");
  GM_RETURN_NOT_OK(Freeze());
  MinerOptions options = request.options;
  options.executor = executor_.get();
  options.request_id = request_id;
  // Admission runs BEFORE the per-request governor is created, so time spent
  // queued never eats into the request's own deadline (the governor's clock
  // starts at construction). The caller-owned governor — if any — is still
  // consulted while queued, so an external cancellation dequeues promptly.
  const GovernorLimits resolved_limits = request.limits.value_or(
      request.governor != nullptr ? GovernorLimits{} : options_.limits);
  std::unique_ptr<ResourceGovernor> owned_governor;
  InflightGuard inflight(this, request_id, RequestClass::kMine);
  AdmissionController::Ticket ticket;
  if (admission_ != nullptr) {
    Result<AdmissionController::Ticket> admitted = [&] {
      GM_TRACE_SPAN("admission_wait");
      return admission_->Admit(RequestClass::kMine, request.governor,
                               resolved_limits.deadline_ms);
    }();
    if (!admitted.ok()) {
      if (options_.admission.degrade_when_saturated &&
          admitted.status().code() != StatusCode::kCancelled) {
        // The degradation ladder: demote to screening-only service instead
        // of shedding. No slot is held — the screening pass is cheap and
        // never enters the governed step-5 scan.
        options.degrade_to_screening = true;
        admission_->NoteDegraded();
        GM_LOG(::granmine::obs::LogLevel::kWarn, "engine",
               "mine request degraded to screening-only service");
        DumpFlightRecorder("degraded", "degraded", request_id);
      } else {
        DumpFlightRecorder("admission-shed",
                           StopCauseToString(admission_->first_shed_cause()),
                           request_id);
        return admitted.status();
      }
    } else {
      ticket = std::move(admitted).value();
    }
  }
  const ResourceGovernor* governor = request.governor;
  if (governor == nullptr) {
    owned_governor = MakeGovernor(request.limits);
    governor = owned_governor.get();
  }
  SetRequestGovernor(request_id, governor);
  Miner miner(system_.get(), options);
  const auto wall_start = std::chrono::steady_clock::now();
  Result<MiningReport> mined =
      miner.Mine(*request.problem, *request.sequence, governor);
  if (governor != nullptr && governor->cause() != StopCause::kNone) {
    // The governor tripped (deadline/step/memory/cancel): dump the flight
    // recorder so the post-mortem carries the run-up to the stop with this
    // request's context — whether the report below is PARTIAL or an error.
    DumpFlightRecorder("governor-trip", StopCauseToString(governor->cause()),
                       request_id);
  }
  if (!mined.ok()) return mined.status();
  MineResponse response;
  response.report = std::move(mined).value();
  response.governor_steps = governor != nullptr ? governor->steps() : 0;
  response.elapsed_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
  return response;
}

Result<OnlineMinerOptions> Engine::AdmitStream(const StreamRequest& request,
                                               std::uint64_t request_id) {
  if (request.problem == nullptr) {
    return Status::Invalid("StreamRequest needs a problem");
  }
  GM_RETURN_NOT_OK(Freeze());
  OnlineMinerOptions options = request.options;
  options.executor = executor_.get();
  options.request_id = request_id;
  if (admission_ != nullptr) {
    // Probe admission: the stream-class slot gates session *opens* only (a
    // session is long-lived, so holding a slot for its lifetime would wedge
    // the class). The ticket is dropped at return; steady-state overload is
    // handled inside the session by the bounded reorder buffer.
    Result<AdmissionController::Ticket> admitted = [&] {
      GM_TRACE_SPAN("admission_wait");
      return admission_->Admit(RequestClass::kStream, nullptr, 0);
    }();
    if (!admitted.ok()) {
      if (options_.admission.degrade_when_saturated &&
          admitted.status().code() != StatusCode::kCancelled) {
        // Degraded stream session: force a bounded reorder buffer so the
        // session sheds (counted, deterministic) instead of growing without
        // bound under pressure.
        admission_->NoteDegraded();
        GM_LOG(::granmine::obs::LogLevel::kWarn, "engine",
               "stream session degraded to a bounded reorder buffer");
        DumpFlightRecorder("degraded", "degraded", request_id);
        if (options.max_buffered_events == 0) {
          options.max_buffered_events = kDegradedStreamBufferCap;
        }
      } else {
        DumpFlightRecorder("admission-shed",
                           StopCauseToString(admission_->first_shed_cause()),
                           request_id);
        return admitted.status();
      }
    }
  }
  return options;
}

Result<OnlineMiner> Engine::OpenStream(const StreamRequest& request) {
  const std::uint64_t request_id = MintRequestId();
  obs::RequestScope request_scope(request_id);
  GM_TRACE_SPAN("engine_open_stream");
  InflightGuard inflight(this, request_id, RequestClass::kStream);
  GM_ASSIGN_OR_RETURN(OnlineMinerOptions options,
                      AdmitStream(request, request_id));
  return OnlineMiner::Create(system_.get(), *request.problem, options);
}

Result<OnlineMiner> Engine::RestoreStream(const StreamRequest& request,
                                          const std::string& path) {
  const std::uint64_t request_id = MintRequestId();
  obs::RequestScope request_scope(request_id);
  GM_TRACE_SPAN("engine_restore_stream");
  InflightGuard inflight(this, request_id, RequestClass::kStream);
  GM_ASSIGN_OR_RETURN(OnlineMinerOptions options,
                      AdmitStream(request, request_id));
  Result<OnlineMiner> restored = persist::RestoreStreamCheckpoint(
      system_.get(), *request.problem, options, path);
  if (!restored.ok()) {
    // A refused restore (fingerprint mismatch, truncated file, wrong family)
    // is exactly the situation the flight recorder exists for: dump the
    // run-up with this request's context before surfacing the error.
    GM_LOG(::granmine::obs::LogLevel::kError, "engine",
           "stream checkpoint restore refused",
           {"path", path}, {"error", restored.status().message()});
    DumpFlightRecorder("restore-refused", "none", request_id);
  }
  return restored;
}

Status Engine::SaveSnapshot(const std::string& path,
                            SnapshotSaveOptions options) {
  GM_TRACE_SPAN("persist_save_snapshot");
  GM_RETURN_NOT_OK(Freeze());
  GM_ASSIGN_OR_RETURN(FrozenSystemImage image, system_->ExportFrozenImage());
  GM_ASSIGN_OR_RETURN(std::unique_ptr<persist::AtomicFileSink> sink,
                      persist::AtomicFileSink::Open(path));
  persist::SnapshotWriter writer(sink.get(),
                                 persist::SnapshotIoOptions{options.governor});
  GM_RETURN_NOT_OK(writer.WriteHeader());
  GM_RETURN_NOT_OK(writer.WriteSection(persist::SectionType::kFrozenSystemImage,
                                       persist::EncodeFrozenSystemImage(image)));
  if (options.sequence != nullptr) {
    GM_RETURN_NOT_OK(
        writer.WriteSection(persist::SectionType::kEventSequence,
                            persist::EncodeEventSequence(*options.sequence)));
  }
  GM_RETURN_NOT_OK(writer.Finish());
  GM_RETURN_NOT_OK(sink->Commit());
  GM_COUNTER_ADD("granmine_persist_snapshots_saved_total", "", 1);
  return Status::OK();
}

Result<std::unique_ptr<Engine>> Engine::FromSnapshot(
    std::unique_ptr<GranularitySystem> system, const std::string& path,
    EngineOptions options, EventSequence* sequence_out) {
  GM_TRACE_SPAN("persist_warm_start");
  if (system == nullptr) {
    return Status::Invalid("Engine::FromSnapshot requires a granularity "
                           "system");
  }
  GM_ASSIGN_OR_RETURN(std::unique_ptr<persist::FileSource> source,
                      persist::FileSource::Open(path));
  GM_ASSIGN_OR_RETURN(std::vector<persist::Section> sections,
                      persist::ReadAllSections(source.get()));
  const persist::Section* image_section = nullptr;
  const persist::Section* sequence_section = nullptr;
  for (const persist::Section& section : sections) {
    if (section.type == persist::SectionType::kFrozenSystemImage &&
        image_section == nullptr) {
      image_section = &section;
    }
    if (section.type == persist::SectionType::kEventSequence &&
        sequence_section == nullptr) {
      sequence_section = &section;
    }
  }
  if (image_section == nullptr) {
    return Status::Invalid("snapshot '" + path +
                           "' carries no frozen-system image");
  }
  GM_ASSIGN_OR_RETURN(FrozenSystemImage image,
                      persist::DecodeFrozenSystemImage(*image_section));
  GM_RETURN_NOT_OK(system->FreezeFromImage(image));
  if (sequence_out != nullptr && sequence_section != nullptr) {
    GM_ASSIGN_OR_RETURN(*sequence_out,
                        persist::DecodeEventSequence(*sequence_section));
  }
  GM_COUNTER_ADD("granmine_persist_warm_starts_total", "", 1);
  // The system arrives pre-frozen, so the engine's lazy Freeze (a call_once
  // into GranularitySystem::Freeze, which is idempotent) is a no-op.
  return Create(std::move(system), options);
}

namespace {

Status WriteTextFile(const std::string& path, const std::string& contents,
                     const char* what) {
  std::ofstream out(path);
  if (out) out << contents;
  if (!out) {
    return Status::Internal("cannot write " + std::string(what) + " to '" +
                            path + "'");
  }
  return Status::OK();
}

}  // namespace

Status Engine::WriteMetrics(const std::string& path) const {
  return WriteTextFile(path, metrics_->Snapshot().ToPrometheusText(),
                       "metrics");
}

Status Engine::WriteTrace(const std::string& path) const {
  return WriteTextFile(path, trace_->ExportJson(), "trace");
}

EngineStatusz Engine::Statusz() const {
  EngineStatusz statusz;
  statusz.requests_total = next_request_id_.load(std::memory_order_relaxed);
  statusz.frozen = system_->frozen();
  statusz.granularities = system_->family().size();
  statusz.num_threads = executor_ != nullptr ? executor_->num_threads() : 1;
  if (admission_ != nullptr) {
    const AdmissionOptions& admission_options = admission_->options();
    statusz.admission.enabled = true;
    statusz.admission.queue_depth = admission_->queue_depth();
    statusz.admission.max_queue = admission_options.max_queue;
    statusz.admission.admitted = admission_->admitted_total();
    statusz.admission.shed = admission_->shed_total();
    statusz.admission.degraded = admission_->degraded_total();
    statusz.admission.first_shed_cause =
        std::string(StopCauseToString(admission_->first_shed_cause()));
    const struct {
      RequestClass cls;
      int slots;
    } classes[] = {
        {RequestClass::kMine, admission_options.mine_slots},
        {RequestClass::kStream, admission_options.stream_slots},
    };
    for (const auto& entry : classes) {
      StatuszAdmissionClass cls;
      cls.cls = std::string(RequestClassToString(entry.cls));
      cls.active = admission_->active_count(entry.cls);
      cls.slots = entry.slots;
      cls.p95_ms = admission_->ServiceP95Ms(entry.cls);
      statusz.admission.classes.push_back(std::move(cls));
    }
  }
  {
    const auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(inflight_mu_);
    statusz.in_flight.reserve(inflight_.size());
    for (const InflightRecord& record : inflight_) {
      StatuszRequest entry;
      entry.id = record.id;
      entry.cls = std::string(RequestClassToString(record.cls));
      entry.elapsed_ms =
          std::chrono::duration<double, std::milli>(now - record.start)
              .count();
      if (record.governor != nullptr) {
        entry.governed = true;
        entry.deadline_remaining_ms = record.governor->deadline_remaining_ms();
        entry.steps_charged = record.governor->steps();
        entry.steps_budget = record.governor->limits().max_steps;
        entry.memory_bytes = record.governor->memory_bytes();
        entry.memory_budget_bytes =
            record.governor->limits().memory_budget_bytes;
      }
      statusz.in_flight.push_back(std::move(entry));
    }
  }
  statusz.metric_series = metrics_->Snapshot().metrics.size();
  statusz.trace_spans = trace_->size();
  statusz.trace_dropped = trace_->dropped();
  statusz.log_emitted = obs::EventLog::Global().emitted();
  statusz.log_suppressed = obs::EventLog::Global().suppressed();
  if (recorder_ != nullptr) {
    statusz.recorder_events = recorder_->size();
    statusz.recorder_total = recorder_->total_appended();
  }
  return statusz;
}

}  // namespace granmine
