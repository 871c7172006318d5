#ifndef GRANMINE_COMMON_GOVERNOR_H_
#define GRANMINE_COMMON_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string_view>

#include "granmine/common/status.h"

namespace granmine {

/// Why a governed computation stopped early. `kNone` means it ran to
/// completion; everything else marks a result as *partial*: whatever was
/// decided before the stop is valid, whatever was not is unknown — never
/// silently "rejected" (see docs/robustness.md).
enum class StopCause : int {
  kNone = 0,
  kDeadline,       ///< the wall-clock deadline passed
  kStepBudget,     ///< a step/configuration budget ran out
  kCancelled,      ///< an external caller requested cancellation
  kFaultInjected,  ///< a test-only FaultInjector forced the stop
  kMemBudget,      ///< the memory budget ran out (GovernorAllocator refusal)
  kDegraded,       ///< admission pressure demoted the request to screening-only
};

/// Canonical lowercase name ("none", "deadline", ...).
std::string_view StopCauseToString(StopCause cause);

/// Observability hook: bumps the per-cause stop counter
/// (`granmine_governor_stops_total`). Called once per governor trip — the
/// first cause to win the sticky CAS — never per check. No-op when the obs
/// layer is compiled out or metrics are disabled at runtime.
void NoteGovernorStop(StopCause cause);

/// Maps a stop cause to the Status an abort-mode caller should surface:
/// deadline/budget/injection become kResourceExhausted, cancellation becomes
/// kCancelled. `what` names the interrupted computation.
Status StopCauseToStatus(StopCause cause, std::string_view what);

/// Which governed search loop a check comes from. Checkpoints declare their
/// scope so a FaultInjector can target one loop (exact solve, TAG matching,
/// candidate mining) without tripping the others.
enum class GovernorScope : int {
  kGeneral = 0,  ///< propagation fixpoint and other auxiliary loops
  kExactSearch,  ///< ExactConsistencyChecker::Check backtracking nodes
  kMatch,        ///< TagMatcher::Run configuration growth
  kMine,         ///< Miner step-5 candidate enumeration
};

/// What kind of failure a FaultInjector injects. Each kind targets one
/// checkpoint family; a checkpoint only consults injectors of its own kind,
/// so an alloc-failure injector never trips an ordinary governor check and
/// vice versa.
enum class FaultKind : int {
  kGovernorCheck = 0,  ///< fail GovernorTicket::Charge slow-path checks
  kAllocFailure,       ///< fail GovernorAllocator::Charge (memory growth)
  kQueueFull,          ///< make the admission queue report itself full
  kSlowWorker,         ///< stall a worker at the checkpoint (admission p95)
};

/// Canonical lowercase name ("governor-check", "alloc-failure", ...).
std::string_view FaultKindToString(FaultKind kind);

/// Test-only hook that forces a governed loop to stop at a chosen point.
///
/// Every governor checkpoint carries a *deterministic progress index* owned
/// by its call site (exact: nodes explored; matcher: configurations created
/// this run; miner: global candidate index). The injector trips every check
/// in its scope whose index is >= `trip_index` — a property of the *work*,
/// not of thread arrival order, so an injected partial result is
/// byte-identical across runs and across executor widths.
///
/// The `kind` selects which checkpoint family fails: ordinary governor
/// checks (the default), GovernorAllocator memory charges, admission-queue
/// capacity probes, or a deterministic slow-worker stall. Progress indices
/// for the admission kinds are the controller's arrival sequence numbers.
///
/// With `cancel_globally` the trip additionally raises the governor's shared
/// stop flag, exercising the real cancellation fan-out (workers stop
/// claiming chunks); that path is inherently racy in what it leaves
/// unevaluated, so tests assert invariants rather than byte-identity there.
class FaultInjector {
 public:
  FaultInjector(GovernorScope scope, std::uint64_t trip_index,
                bool cancel_globally = false,
                FaultKind kind = FaultKind::kGovernorCheck)
      : scope_(scope),
        trip_index_(trip_index),
        cancel_globally_(cancel_globally),
        kind_(kind) {}

  /// Whether a governor check in `scope` at `index` must fail. Thread-safe.
  bool ShouldTrip(GovernorScope scope, std::uint64_t index) const {
    return ShouldFail(FaultKind::kGovernorCheck, scope, index);
  }

  /// Whether a checkpoint of `kind` in `scope` at `index` must fail.
  /// Thread-safe. Non-matching kinds count as observed checks but never
  /// trip, so one injector can be installed while every family probes it.
  bool ShouldFail(FaultKind kind, GovernorScope scope,
                  std::uint64_t index) const {
    checks_.fetch_add(1, std::memory_order_relaxed);
    if (kind != kind_ || scope != scope_ || index < trip_index_) return false;
    trips_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  FaultKind kind() const { return kind_; }
  bool cancel_globally() const { return cancel_globally_; }
  std::uint64_t checks_observed() const {
    return checks_.load(std::memory_order_relaxed);
  }
  std::uint64_t trips_fired() const {
    return trips_.load(std::memory_order_relaxed);
  }

 private:
  const GovernorScope scope_;
  const std::uint64_t trip_index_;
  const bool cancel_globally_;
  const FaultKind kind_;
  mutable std::atomic<std::uint64_t> checks_{0};
  mutable std::atomic<std::uint64_t> trips_{0};
};

/// Resource limits for one governed request. Zero always means "no limit".
struct GovernorLimits {
  /// Wall-clock budget measured from ResourceGovernor construction.
  std::int64_t deadline_ms = 0;
  /// Total steps (search nodes, matcher configurations, candidates) across
  /// every thread sharing the governor.
  std::uint64_t max_steps = 0;
  /// Total bytes of governed scratch memory (exact-search candidate pools,
  /// TAG frontiers, subset-sum structures, scan buffers) live at once across
  /// every thread sharing the governor. Charged through GovernorAllocator;
  /// exceeding it trips StopCause::kMemBudget.
  std::uint64_t memory_budget_bytes = 0;
  /// How many GovernorTicket::Charge calls ride the cheap inline path
  /// between slow checks (clock read + step accounting). A stop raised on
  /// another thread is observed at the next slow check, i.e. within one
  /// stride of charges. Tests that sweep fault-injection points set 1 for
  /// exact placement.
  std::uint32_t check_stride = 64;
};

/// A shared per-request context carrying a deadline, a step budget, and a
/// cooperative cancellation token. One governor is created per top-level
/// request (e.g. one `Miner::Mine` call) and threaded by const pointer
/// through every search loop it covers; any number of worker threads may
/// share it.
///
/// The stop flag is sticky: the first cause to trip wins and every later
/// check reports it. Checks are cooperative — a loop that never charges its
/// ticket is never interrupted — and cheap: the fast path of
/// `GovernorTicket::Charge` is a purely local countdown with no shared
/// memory traffic at all; the governor (including a stop raised by another
/// thread) is consulted once per `check_stride` charges (see
/// bench/bench_governor_overhead.cc, E10).
class ResourceGovernor {
 public:
  /// An unlimited governor: never trips on its own, but can still be
  /// cancelled via RequestCancel.
  ResourceGovernor() : ResourceGovernor(GovernorLimits{}) {}

  explicit ResourceGovernor(GovernorLimits limits)
      : limits_(limits),
        deadline_(limits.deadline_ms > 0
                      ? std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(limits.deadline_ms)
                      : std::chrono::steady_clock::time_point::max()) {}

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// Requests cooperative cancellation from outside the computation.
  void RequestCancel() const { Trip(StopCause::kCancelled); }

  /// Whether some cause has tripped the governor. Relaxed — callers that
  /// must act on the cause should go through GovernorTicket::Charge.
  bool stopped() const { return stop_flag_.load(std::memory_order_relaxed); }

  /// The first cause that tripped, or kNone.
  StopCause cause() const {
    return static_cast<StopCause>(cause_.load(std::memory_order_acquire));
  }

  /// The sticky stop flag, exposed for Executor cooperative cancellation.
  const std::atomic<bool>& stop_flag() const { return stop_flag_; }

  /// Steps accounted so far (flushed in check_stride batches).
  std::uint64_t steps() const {
    return steps_.load(std::memory_order_relaxed);
  }

  std::uint32_t check_stride() const {
    return limits_.check_stride > 0 ? limits_.check_stride : 1;
  }

  /// Installs a test-only fault injector (not owned; must outlive every
  /// governed computation). Pass nullptr to remove. Not thread-safe against
  /// concurrent checks — install before the computation starts.
  void InstallFaultInjector(const FaultInjector* injector) {
    injector_ = injector;
  }

  /// The slow-path check: consults the injector, the sticky flag, the step
  /// budget (charging `steps` units) and the deadline, in that order.
  /// Returns kNone to continue. Called by GovernorTicket::Charge.
  StopCause CheckNow(GovernorScope scope, std::uint64_t index,
                     std::uint32_t steps) const {
    if (injector_ != nullptr && injector_->ShouldTrip(scope, index)) {
      if (injector_->cancel_globally()) Trip(StopCause::kFaultInjected);
      return StopCause::kFaultInjected;
    }
    if (stop_flag_.load(std::memory_order_acquire)) return cause();
    std::uint64_t total = steps_.fetch_add(steps, std::memory_order_relaxed)
                          + steps;
    if (limits_.max_steps > 0 && total > limits_.max_steps) {
      Trip(StopCause::kStepBudget);
      return StopCause::kStepBudget;
    }
    if (limits_.deadline_ms > 0 &&
        std::chrono::steady_clock::now() >= deadline_) {
      Trip(StopCause::kDeadline);
      return StopCause::kDeadline;
    }
    return StopCause::kNone;
  }

  /// The memory slow path, called by GovernorAllocator::Charge: consults an
  /// alloc-failure injector, the sticky flag, then the memory budget. On
  /// refusal the bytes are NOT charged — the caller must unwind without the
  /// allocation it asked for. A local (non-global) injected failure refuses
  /// without tripping the shared flag, exactly like CheckNow, so one
  /// candidate fails deterministically while the rest proceed.
  StopCause ChargeMemory(GovernorScope scope, std::uint64_t index,
                         std::uint64_t bytes) const {
    if (injector_ != nullptr &&
        injector_->ShouldFail(FaultKind::kAllocFailure, scope, index)) {
      if (injector_->cancel_globally()) Trip(StopCause::kFaultInjected);
      return StopCause::kFaultInjected;
    }
    if (stop_flag_.load(std::memory_order_acquire)) return cause();
    std::uint64_t total =
        mem_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (limits_.memory_budget_bytes > 0 &&
        total > limits_.memory_budget_bytes) {
      mem_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
      Trip(StopCause::kMemBudget);
      return StopCause::kMemBudget;
    }
    std::uint64_t peak = mem_peak_.load(std::memory_order_relaxed);
    while (total > peak &&
           !mem_peak_.compare_exchange_weak(peak, total,
                                            std::memory_order_relaxed)) {
    }
    return StopCause::kNone;
  }

  /// Returns bytes previously charged via ChargeMemory. Called by
  /// GovernorAllocator's destructor (scoped-arena release).
  void ReleaseMemory(std::uint64_t bytes) const {
    mem_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Governed scratch bytes currently charged / the high-water mark.
  std::uint64_t memory_bytes() const {
    return mem_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t memory_peak_bytes() const {
    return mem_peak_.load(std::memory_order_relaxed);
  }

  /// The limits this governor was constructed with (statusz reports the
  /// remaining budgets against them).
  const GovernorLimits& limits() const { return limits_; }

  /// Milliseconds of wall budget left; -1 when no deadline was set, 0 once
  /// the deadline passed.
  std::int64_t deadline_remaining_ms() const {
    if (limits_.deadline_ms <= 0) return -1;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline_) return 0;
    return std::chrono::duration_cast<std::chrono::milliseconds>(deadline_ -
                                                                 now)
        .count();
  }

 private:
  void Trip(StopCause cause) const {
    int expected = static_cast<int>(StopCause::kNone);
    if (cause_.compare_exchange_strong(expected, static_cast<int>(cause),
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
      NoteGovernorStop(cause);
    }
    stop_flag_.store(true, std::memory_order_release);
  }

  const GovernorLimits limits_;
  const std::chrono::steady_clock::time_point deadline_;
  const FaultInjector* injector_ = nullptr;
  mutable std::atomic<bool> stop_flag_{false};
  mutable std::atomic<int> cause_{static_cast<int>(StopCause::kNone)};
  mutable std::atomic<std::uint64_t> steps_{0};
  mutable std::atomic<std::uint64_t> mem_bytes_{0};
  mutable std::atomic<std::uint64_t> mem_peak_{0};
};

/// The per-call-site handle a governed loop charges once per unit of work.
/// A ticket belongs to one thread; create one per deterministic work unit
/// (per matcher run, per exact solve, per mining chunk) so the stride phase
/// — and therefore the exact check placement — is a deterministic property
/// of the work, independent of what ran before on the same thread.
class GovernorTicket {
 public:
  /// Detached ticket: Charge always returns kNone. Lets call sites keep one
  /// unconditional Charge in the loop body.
  GovernorTicket() = default;

  /// `governor` may be nullptr (detached).
  GovernorTicket(const ResourceGovernor* governor, GovernorScope scope)
      : governor_(governor),
        scope_(scope),
        stride_(governor != nullptr ? governor->check_stride() : 1) {}

  /// Charges one unit of work. `index` is the call site's deterministic
  /// progress counter (see FaultInjector). Returns kNone to continue, or
  /// the cause the loop must unwind with. The governor is only consulted
  /// every `check_stride` charges, so a concurrent stop is observed within
  /// one stride — the fast path touches no shared state.
  StopCause Charge(std::uint64_t index) {
    if (governor_ == nullptr) return StopCause::kNone;
    if (++pending_ < stride_) return StopCause::kNone;
    std::uint32_t batch = pending_;
    pending_ = 0;
    return governor_->CheckNow(scope_, index, batch);
  }

  const ResourceGovernor* governor() const { return governor_; }

 private:
  const ResourceGovernor* governor_ = nullptr;
  GovernorScope scope_ = GovernorScope::kGeneral;
  std::uint32_t stride_ = 1;
  std::uint32_t pending_ = 0;
};

}  // namespace granmine

#endif  // GRANMINE_COMMON_GOVERNOR_H_
