#ifndef GRANMINE_ENGINE_ENGINE_H_
#define GRANMINE_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "granmine/common/executor.h"
#include "granmine/common/governor.h"
#include "granmine/common/result.h"
#include "granmine/engine/admission.h"
#include "granmine/engine/statusz.h"
#include "granmine/granularity/system.h"
#include "granmine/mining/discovery.h"
#include "granmine/mining/miner.h"
#include "granmine/obs/flight_recorder.h"
#include "granmine/obs/log.h"
#include "granmine/obs/metrics.h"
#include "granmine/obs/trace.h"
#include "granmine/sequence/sequence.h"
#include "granmine/stream/online_miner.h"

namespace granmine {

/// Engine-wide defaults. Every request knob left unset resolves against
/// these, so callers configure (threads, limits, observability) once instead
/// of threading the same quadruple through every call chain.
struct EngineOptions {
  /// Width of the one pool shared by every Mine request and stream-session
  /// snapshot. 1 = serial (bit-identical to the single-threaded paths);
  /// <= 0 = hardware concurrency.
  int num_threads = 1;
  /// Default per-request governor limits; all-zero = ungoverned. A request
  /// overrides them with `limits`, or bypasses the factory entirely with a
  /// caller-owned `governor`.
  GovernorLimits limits;
  /// Flip the process-wide runtime switches of the obs layer on at Create
  /// (they stay off otherwise; see docs/observability.md).
  bool enable_metrics = false;
  bool enable_tracing = false;
  /// Structured event log (obs/log.h): turn the logger on at Create with
  /// `log_level` as the minimum severity. Independently of this switch the
  /// engine always attaches a flight recorder, which taps the record stream
  /// before the level filter — a disabled logger just writes nothing.
  bool enable_logging = false;
  obs::LogLevel log_level = obs::LogLevel::kInfo;
  /// JSON-lines sink path (CLI `--log-out`); empty = no sink. A non-empty
  /// path implies `enable_logging`.
  std::string log_path;
  /// Overload admission in front of the serving entry points
  /// (docs/robustness.md, "admission and degradation"). Disabled by default:
  /// every request is served unconditionally, exactly as before.
  AdmissionOptions admission;
};

/// One batch discovery request. `problem` and `sequence` must stay alive for
/// the duration of the call.
struct MineRequest {
  const DiscoveryProblem* problem = nullptr;
  const EventSequence* sequence = nullptr;
  /// Per-request mining knobs. `executor` is resolved by the engine (its
  /// shared pool) and need not be set.
  MinerOptions options;
  /// Governor limits for this request; unset = the engine's default limits.
  std::optional<GovernorLimits> limits;
  /// Caller-owned governor (e.g. carrying an external cancellation token).
  /// When set it wins over `limits` and the engine creates none.
  const ResourceGovernor* governor = nullptr;
};

struct MineResponse {
  MiningReport report;
  /// Steps the per-request governor charged (0 when ungoverned).
  std::uint64_t governor_steps = 0;
  double elapsed_ms = 0;
};

/// What `Engine::SaveSnapshot` writes beyond the frozen system image.
struct SnapshotSaveOptions {
  /// When set, the sequence is stored as a kEventSequence section so a
  /// restored engine can resume batch work without re-parsing input.
  const EventSequence* sequence = nullptr;
  /// Charges the checkpoint I/O (steps per payload block + buffer memory)
  /// and makes the write cancellable; may be null (ungoverned).
  const ResourceGovernor* governor = nullptr;
};

/// One streaming session request. `problem` (and its structure) must outlive
/// the returned OnlineMiner.
struct StreamRequest {
  const DiscoveryProblem* problem = nullptr;
  /// Per-session knobs. `executor` is resolved by the engine (its shared
  /// pool) and need not be set.
  OnlineMinerOptions options;
};

/// The serving facade over one frozen granularity family: owns the
/// `GranularitySystem`, the shared step-5 thread pool, the governor factory,
/// and the handles to the process obs registries, and exposes the entry
/// points (`Mine`, `OpenStream`/`RestoreStream`) the CLI, batch and stream
/// callers previously wired by hand. One TAG evaluation needs no engine:
/// the library API for it is `TagMatcher` (tag/matcher.h).
///
/// Lifecycle (docs/architecture.md): *build* — create the engine, define
/// further granularities through `system()` (e.g. structure files with
/// `granularity NAME = ...` lines); *freeze* — the first serve call (or an
/// explicit `Freeze()`) seals the family into the dense id-indexed caches;
/// *serve* — any number of requests against the immutable core. After the
/// freeze, table/coverage lookups are lock-free array reads, so one engine
/// supports many concurrent sessions.
///
/// Thread safety: `Mine` is safe from any thread. Concurrent requests share
/// the one pool: a scan that finds it busy runs inline on its own thread
/// (Executor). Each `OpenStream` session is single-threaded externally,
/// like `OnlineMiner` itself, and its snapshots borrow the same pool.
class Engine {
 public:
  /// Takes ownership of `system` (must be non-null). Flips the obs runtime
  /// switches on when asked, and builds the shared pool for
  /// `options.num_threads`. The system stays unfrozen so callers can keep
  /// defining granularities until the first serve call.
  static Result<std::unique_ptr<Engine>> Create(
      std::unique_ptr<GranularitySystem> system,
      EngineOptions options = EngineOptions{});

  /// Convenience: an engine over the standard Gregorian family.
  static Result<std::unique_ptr<Engine>> CreateGregorian(
      EngineOptions options = EngineOptions{});

  ~Engine();

  /// Ends the build phase (idempotent; implied by the first serve call).
  /// Safe to reach from concurrent first serve calls: GranularitySystem's
  /// own Freeze is a build-phase API with no internal locking, so the
  /// engine funnels every freeze through one call_once. The winning call
  /// records an `engine_freeze` span under its request's context.
  Status Freeze();

  bool frozen() const { return system_->frozen(); }

  /// The owned granularity family — mutable before the freeze (to define
  /// types), shared read-only after.
  GranularitySystem* system() { return system_.get(); }
  const GranularitySystem& system() const { return *system_; }

  /// Batch §5 discovery on the engine's pool. Freezes on first use.
  Result<MineResponse> Mine(const MineRequest& request);

  /// Opens a streaming session resolved against engine defaults. Freezes on
  /// first use. The session borrows the engine's system and, for snapshot
  /// merges, its pool.
  Result<OnlineMiner> OpenStream(const StreamRequest& request);

  /// Writes a versioned binary snapshot (docs/persistence.md) of the frozen
  /// family — and optionally an event sequence — to `path` through an
  /// atomic temp-file-plus-rename, so a crash or cancellation mid-write
  /// never leaves a partial file. Freezes on first use.
  Status SaveSnapshot(const std::string& path,
                      SnapshotSaveOptions options = {});

  /// Warm start: builds an engine over `system` (same family definitions,
  /// not yet frozen) whose freeze installs the sealed caches from the
  /// snapshot at `path` instead of recomputing them. Refuses (Invalid) when
  /// the snapshot does not match the family. `sequence_out`, when non-null,
  /// receives the snapshot's event sequence if one was stored.
  static Result<std::unique_ptr<Engine>> FromSnapshot(
      std::unique_ptr<GranularitySystem> system, const std::string& path,
      EngineOptions options = EngineOptions{},
      EventSequence* sequence_out = nullptr);

  /// Resumes a stream session from the checkpoint at `path`: admission and
  /// option resolution as in OpenStream, then the session's dynamic state
  /// is installed from the checkpoint (persist::RestoreStreamCheckpoint).
  /// The restored session's snapshots are byte-identical to an
  /// uninterrupted run over the same arrivals. Freezes on first use.
  Result<OnlineMiner> RestoreStream(const StreamRequest& request,
                                    const std::string& path);

  /// The governor factory: a fresh per-request governor for `limits`
  /// (default: the engine's), or nullptr when the resolved limits are
  /// all-zero — an ungoverned request needs no shared context at all.
  std::unique_ptr<ResourceGovernor> MakeGovernor(
      std::optional<GovernorLimits> limits = std::nullopt) const;

  /// The admission controller gating the serving entry points; null when
  /// `EngineOptions::admission.enabled` is false (no admission state exists).
  /// Exposed for telemetry (shed/degraded counters, sticky first cause) and
  /// for installing a test fault injector.
  AdmissionController* admission() { return admission_.get(); }
  const AdmissionController* admission() const { return admission_.get(); }

  /// The shared pool — the only one the library builds; null when the
  /// engine is serial.
  Executor* executor() { return executor_.get(); }

  /// The process obs registries the engine switched on (always valid; when
  /// the corresponding EngineOptions switch was off they simply stay
  /// disabled and export empty).
  obs::MetricsRegistry& metrics() const { return *metrics_; }
  obs::TraceCollector& trace() const { return *trace_; }

  /// Prometheus text exposition of `metrics()` to `path`.
  Status WriteMetrics(const std::string& path) const;
  /// Chrome trace_event JSON of `trace()` to `path`.
  Status WriteTrace(const std::string& path) const;

  /// Point-in-time serving snapshot (engine/statusz.h): admission occupancy,
  /// every in-flight request with its id / elapsed time / remaining governor
  /// budgets, the frozen-family summary, and the obs-layer totals. Safe from
  /// any thread; render with RenderStatuszJson.
  EngineStatusz Statusz() const;

  /// Request ids minted so far (the next request gets this + 1).
  std::uint64_t requests_minted() const {
    return next_request_id_.load(std::memory_order_relaxed);
  }

  /// The engine's flight recorder — the last N structured-log events at all
  /// severities (obs/flight_recorder.h). Always attached; exposed for tests
  /// and post-mortem tooling.
  obs::FlightRecorder* flight_recorder() const { return recorder_.get(); }

  /// Mints the next id from the engine-scoped request-id sequence. The
  /// serving entry points call this internally; the network layer
  /// (src/granmine/server) calls it at frame decode so connection-level
  /// spans and log lines share the id space of engine-internal requests.
  std::uint64_t MintRequestId() {
    return next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

 private:
  Engine(std::unique_ptr<GranularitySystem> system, EngineOptions options);

  /// One admitted request currently inside a serving entry point.
  struct InflightRecord {
    std::uint64_t id = 0;
    RequestClass cls = RequestClass::kMine;
    std::chrono::steady_clock::time_point start{};
    const ResourceGovernor* governor = nullptr;
  };

  void BeginRequest(std::uint64_t id, RequestClass cls);
  void SetRequestGovernor(std::uint64_t id, const ResourceGovernor* governor);
  void EndRequest(std::uint64_t id);

  /// RAII in-flight registration. Declare AFTER any owned governor so the
  /// registry entry (which Statusz dereferences) is removed before the
  /// governor dies.
  struct InflightGuard {
    InflightGuard(Engine* engine, std::uint64_t id, RequestClass cls)
        : engine_(engine), id_(id) {
      engine_->BeginRequest(id, cls);
    }
    ~InflightGuard() { engine_->EndRequest(id_); }
    InflightGuard(const InflightGuard&) = delete;
    InflightGuard& operator=(const InflightGuard&) = delete;
    Engine* engine_;
    std::uint64_t id_;
  };

  /// Dumps the flight recorder when a request ends badly: one raw JSON line
  /// into the log sink when one is open, a human text block to stderr
  /// otherwise. No-op while the logger is disabled.
  void DumpFlightRecorder(std::string_view reason, std::string_view stop_cause,
                          std::uint64_t request_id) const;

  /// Shared by OpenStream/RestoreStream: resolves session options against
  /// engine defaults (stamping `request_id` into them) and runs the
  /// stream-class admission probe.
  Result<OnlineMinerOptions> AdmitStream(const StreamRequest& request,
                                         std::uint64_t request_id);

  std::unique_ptr<GranularitySystem> system_;
  std::once_flag freeze_once_;
  Status freeze_status_ = Status::OK();
  EngineOptions options_;
  std::unique_ptr<Executor> executor_;
  std::unique_ptr<AdmissionController> admission_;
  obs::MetricsRegistry* metrics_;
  obs::TraceCollector* trace_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::atomic<std::uint64_t> next_request_id_{0};
  mutable std::mutex inflight_mu_;
  std::vector<InflightRecord> inflight_;  // guarded by inflight_mu_
};

}  // namespace granmine

#endif  // GRANMINE_ENGINE_ENGINE_H_
