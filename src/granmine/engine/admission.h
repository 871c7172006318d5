#ifndef GRANMINE_ENGINE_ADMISSION_H_
#define GRANMINE_ENGINE_ADMISSION_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>

#include "granmine/common/governor.h"
#include "granmine/common/result.h"

namespace granmine {

/// The two serving classes the Engine routes; each has its own concurrency
/// limit so a pile of NP-hard Mine requests cannot starve stream sessions.
enum class RequestClass : int { kMine = 0, kStream };
inline constexpr int kRequestClassCount = 2;

/// Canonical lowercase name ("mine", "stream").
std::string_view RequestClassToString(RequestClass cls);

/// Whether `status` is a retryable admission shed — a ResourceExhausted
/// whose message carries the "admission:" prefix and the suggested-backoff
/// hint Shed() stamps (docs/robustness.md, "retry contract"). Lives next to
/// Shed so the message format has exactly one producer and one consumer;
/// the serving layer uses it to mark error frames retryable. When
/// `backoff_ms` is non-null it receives the suggested delay (1.0 if the
/// hint cannot be parsed).
bool IsRetryableShed(const Status& status, double* backoff_ms = nullptr);

struct AdmissionOptions {
  /// Master switch. Off (the default) keeps the pre-overload-PR behavior:
  /// every request is served unconditionally, zero admission state exists on
  /// the request path.
  bool enabled = false;
  /// Per-class concurrency limits; <= 0 = unlimited for that class. Mine
  /// defaults to 1 because every Mine request shares one step-5 pool anyway.
  int mine_slots = 1;
  int stream_slots = 4;
  /// Bound on requests *waiting* for a slot, across all classes. A request
  /// arriving with the queue full is shed immediately.
  std::size_t max_queue = 16;
  /// Degraded-serving ladder: when a request cannot be admitted (queue full
  /// or deadline-infeasible), the Engine serves it screening-only instead of
  /// shedding it (docs/robustness.md, "admission and degradation").
  bool degrade_when_saturated = false;
  /// How often a queued waiter re-checks its governor's cancellation token
  /// and its remaining deadline.
  std::int64_t queue_poll_ms = 5;
  /// The synthetic service time an injected slow-worker fault records in
  /// place of the measured one — it drags the p95 estimate up
  /// deterministically, without wall-clock sleeps (tests/overload_test.cc).
  double injected_slow_ms = 1'000'000.0;
};

/// Bounded admission in front of the Engine's serving entry points: per-class
/// concurrency slots, a bounded wait queue, deadline-aware shedding against
/// an observed p95 service time, cooperative cancellation of queued
/// requests, and sticky first-cause accounting.
///
/// Shedding is always *loud*: a retryable ResourceExhausted Status naming
/// the reason and a suggested backoff, never a silent drop and never a wrong
/// answer. The first cause to shed anything is recorded sticky (first-wins
/// CAS), mirroring ResourceGovernor's StopCause semantics with the same
/// vocabulary:
///   - kStepBudget  — the wait-queue capacity budget ran out
///   - kDeadline    — the remaining deadline cannot cover the observed p95
///                    service time for the class
///   - kCancelled   — the request's governor was cancelled while queued
///   - kFaultInjected — an injected queue-full fault (FaultKind::kQueueFull)
///   - kDegraded    — recorded via NoteDegraded when the Engine demotes a
///                    request to screening-only instead of shedding it
///
/// Thread safety: every public member is safe to call from any thread.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options)
      : options_(options) {}

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// RAII admission slot: releasing it (destruction) frees the class slot,
  /// records the request's service time into the p95 estimator, and wakes a
  /// queued waiter. A default-constructed ticket is empty (admission
  /// disabled — nothing to release).
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept { *this = std::move(other); }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        controller_ = other.controller_;
        class_ = other.class_;
        seq_ = other.seq_;
        start_ = other.start_;
        other.controller_ = nullptr;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

    /// Whether this ticket holds a slot (false for the empty ticket the
    /// disabled controller hands out).
    bool admitted() const { return controller_ != nullptr; }

   private:
    friend class AdmissionController;
    Ticket(AdmissionController* controller, RequestClass cls,
           std::uint64_t seq,
           std::chrono::steady_clock::time_point start)
        : controller_(controller), class_(cls), seq_(seq), start_(start) {}

    void Release();

    AdmissionController* controller_ = nullptr;
    RequestClass class_ = RequestClass::kMine;
    std::uint64_t seq_ = 0;
    std::chrono::steady_clock::time_point start_{};
  };

  /// Admits one request of `cls`, blocking in the bounded queue while the
  /// class is saturated. Sheds immediately — retryable ResourceExhausted
  /// with a suggested backoff — when the queue is full, when `deadline_ms`
  /// (> 0 = the request's remaining wall budget) cannot cover the class's
  /// observed p95 service time, or when a queue-full fault is injected.
  /// A queued request whose `governor` trips leaves the queue with
  /// kCancelled. With admission disabled, returns an empty ticket without
  /// touching any shared state.
  Result<Ticket> Admit(RequestClass cls, const ResourceGovernor* governor,
                       std::int64_t deadline_ms);

  /// Installs a test-only fault injector consulted for kQueueFull faults at
  /// Admit (index = arrival sequence number) and kSlowWorker faults at
  /// release (index = the admitted request's arrival sequence number). Not
  /// thread-safe against in-flight requests — install before serving.
  void InstallFaultInjector(const FaultInjector* injector) {
    injector_ = injector;
  }

  /// Records one request demoted to degraded serving (called by the Engine
  /// when `degrade_when_saturated` converts a would-be shed).
  void NoteDegraded();

  /// The p95 of the last services of `cls`, in milliseconds; 0 with no
  /// samples yet.
  double ServiceP95Ms(RequestClass cls) const;

  /// Sticky first cause that shed (or demoted) a request; kNone when
  /// everything so far was admitted and served in full.
  StopCause first_shed_cause() const {
    return static_cast<StopCause>(
        first_cause_.load(std::memory_order_acquire));
  }

  std::uint64_t admitted_total() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t shed_total() const {
    return shed_.load(std::memory_order_relaxed);
  }
  std::uint64_t degraded_total() const {
    return degraded_.load(std::memory_order_relaxed);
  }
  /// Requests currently waiting for a slot.
  std::size_t queue_depth() const;
  /// Requests of `cls` currently holding a slot (statusz).
  int active_count(RequestClass cls) const;

  const AdmissionOptions& options() const { return options_; }

 private:
  static constexpr std::size_t kServiceWindow = 64;

  void Release(RequestClass cls, std::uint64_t seq, double service_ms);
  /// Accounts one shed (sticky first cause + counters) and builds the
  /// retryable Status.
  Status Shed(StopCause cause, const std::string& reason, double backoff_ms);
  void RecordCause(StopCause cause);
  double P95Locked(RequestClass cls) const;

  const AdmissionOptions options_;
  const FaultInjector* injector_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::array<int, kRequestClassCount> active_{};
  std::size_t waiters_ = 0;
  /// Per-class ring of recent service times (ms); [class][slot].
  std::array<std::array<double, kServiceWindow>, kRequestClassCount>
      samples_{};
  std::array<std::size_t, kRequestClassCount> sample_count_{};
  std::array<std::size_t, kRequestClassCount> sample_next_{};

  std::atomic<std::uint64_t> arrivals_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<int> first_cause_{static_cast<int>(StopCause::kNone)};
};

}  // namespace granmine

#endif  // GRANMINE_ENGINE_ADMISSION_H_
