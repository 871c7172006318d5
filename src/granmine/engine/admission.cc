#include "granmine/engine/admission.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>

#include "granmine/obs/obs.h"

namespace granmine {

bool IsRetryableShed(const Status& status, double* backoff_ms) {
  if (status.code() != StatusCode::kResourceExhausted) return false;
  const std::string& message = status.message();
  if (message.rfind("admission: ", 0) != 0) return false;
  static constexpr std::string_view kHint = "suggested backoff ~";
  const std::size_t hint = message.find(kHint);
  if (hint == std::string::npos) return false;
  if (backoff_ms != nullptr) {
    const char* start = message.c_str() + hint + kHint.size();
    char* end = nullptr;
    const double parsed = std::strtod(start, &end);
    *backoff_ms = (end == start || parsed <= 0) ? 1.0 : parsed;
  }
  return true;
}

std::string_view RequestClassToString(RequestClass cls) {
  switch (cls) {
    case RequestClass::kMine:
      return "mine";
    case RequestClass::kStream:
      return "stream";
  }
  return "unknown";
}

namespace {

int SlotsFor(const AdmissionOptions& options, RequestClass cls) {
  switch (cls) {
    case RequestClass::kMine:
      return options.mine_slots;
    case RequestClass::kStream:
      return options.stream_slots;
  }
  return 0;
}

// Metric label bodies must be string literals (obs.h), hence the switches.
void NoteShed(StopCause cause) {
  switch (cause) {
    case StopCause::kDeadline:
      GM_COUNTER_ADD("granmine_admission_shed_total", "cause=\"deadline\"", 1);
      break;
    case StopCause::kStepBudget:
      GM_COUNTER_ADD("granmine_admission_shed_total", "cause=\"queue-full\"",
                     1);
      break;
    case StopCause::kCancelled:
      GM_COUNTER_ADD("granmine_admission_shed_total", "cause=\"cancelled\"",
                     1);
      break;
    case StopCause::kFaultInjected:
      GM_COUNTER_ADD("granmine_admission_shed_total",
                     "cause=\"fault-injected\"", 1);
      break;
    default:
      GM_COUNTER_ADD("granmine_admission_shed_total", "cause=\"other\"", 1);
      break;
  }
}

void NoteAdmitted(RequestClass cls) {
  switch (cls) {
    case RequestClass::kMine:
      GM_COUNTER_ADD("granmine_admission_admitted_total", "class=\"mine\"", 1);
      break;
    case RequestClass::kStream:
      GM_COUNTER_ADD("granmine_admission_admitted_total", "class=\"stream\"",
                     1);
      break;
  }
}

std::string FormatMs(double ms) {
  // One decimal is plenty for a backoff hint.
  const double rounded = ms < 0 ? 0 : ms;
  std::string text = std::to_string(rounded);
  std::size_t dot = text.find('.');
  if (dot != std::string::npos && dot + 2 < text.size()) {
    text.erase(dot + 2);
  }
  return text;
}

}  // namespace

void AdmissionController::Ticket::Release() {
  if (controller_ == nullptr) return;
  const double service_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_)
          .count();
  controller_->Release(class_, seq_, service_ms);
  controller_ = nullptr;
}

void AdmissionController::RecordCause(StopCause cause) {
  int expected = static_cast<int>(StopCause::kNone);
  first_cause_.compare_exchange_strong(expected, static_cast<int>(cause),
                                       std::memory_order_release,
                                       std::memory_order_relaxed);
}

Status AdmissionController::Shed(StopCause cause, const std::string& reason,
                                 double backoff_ms) {
  shed_.fetch_add(1, std::memory_order_relaxed);
  RecordCause(cause);
  NoteShed(cause);
  GM_LOG(::granmine::obs::LogLevel::kWarn, "admission", "request shed",
         {"cause", std::string(StopCauseToString(cause))}, {"reason", reason});
  if (cause == StopCause::kCancelled) {
    return Status::Cancelled("admission: " + reason);
  }
  // A positive backoff makes the shed *retryable by contract*
  // (docs/robustness.md, "retry contract"): the caller may re-submit after
  // the suggested delay without any risk of a duplicated side effect —
  // nothing was started.
  const double suggested = backoff_ms > 0 ? backoff_ms : 1.0;
  return Status::ResourceExhausted("admission: " + reason +
                                   "; retryable — suggested backoff ~" +
                                   FormatMs(suggested) + " ms");
}

double AdmissionController::P95Locked(RequestClass cls) const {
  const auto idx = static_cast<std::size_t>(cls);
  const std::size_t count = sample_count_[idx];
  if (count == 0) return 0;
  std::array<double, kServiceWindow> sorted{};
  std::copy_n(samples_[idx].begin(), count, sorted.begin());
  const std::size_t rank =
      count == 1 ? 0 : std::min(count - 1, (count * 95 + 99) / 100 - 1);
  std::nth_element(sorted.begin(),
                   sorted.begin() + static_cast<std::ptrdiff_t>(rank),
                   sorted.begin() + static_cast<std::ptrdiff_t>(count));
  return sorted[rank];
}

double AdmissionController::ServiceP95Ms(RequestClass cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  return P95Locked(cls);
}

std::size_t AdmissionController::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiters_;
}

int AdmissionController::active_count(RequestClass cls) const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_[static_cast<std::size_t>(cls)];
}

void AdmissionController::NoteDegraded() {
  degraded_.fetch_add(1, std::memory_order_relaxed);
  RecordCause(StopCause::kDegraded);
  GM_COUNTER_ADD("granmine_admission_degraded_total", "", 1);
}

Result<AdmissionController::Ticket> AdmissionController::Admit(
    RequestClass cls, const ResourceGovernor* governor,
    std::int64_t deadline_ms) {
  if (!options_.enabled) return Ticket{};
  const std::uint64_t seq = arrivals_.fetch_add(1, std::memory_order_relaxed);

  if (injector_ != nullptr &&
      injector_->ShouldFail(FaultKind::kQueueFull, GovernorScope::kGeneral,
                            seq)) {
    return Shed(StopCause::kFaultInjected, "injected queue-full fault",
                ServiceP95Ms(cls));
  }

  // Deadline-aware shedding: starting a request that observably cannot
  // finish inside its own deadline wastes a slot another request could use;
  // shedding it now is strictly kinder than a guaranteed kDeadline later.
  // The p95 estimate (a lock plus an nth_element over the sample ring) is
  // only computed for requests that actually carry a deadline, keeping the
  // deadline-less uncontended path to two mutex hops.
  if (deadline_ms > 0) {
    const double p95 = ServiceP95Ms(cls);
    if (p95 > static_cast<double>(deadline_ms)) {
      return Shed(StopCause::kDeadline,
                  "remaining deadline " + std::to_string(deadline_ms) +
                      " ms cannot cover the observed p95 " +
                      std::string(RequestClassToString(cls)) +
                      " service time " + FormatMs(p95) + " ms",
                  p95);
    }
  }

  const int slots = SlotsFor(options_, cls);
  const auto idx = static_cast<std::size_t>(cls);
  std::unique_lock<std::mutex> lock(mu_);
  auto slot_free = [&] { return slots <= 0 || active_[idx] < slots; };
  if (!slot_free()) {
    if (waiters_ >= options_.max_queue) {
      const double backoff = P95Locked(cls);
      lock.unlock();
      return Shed(StopCause::kStepBudget,
                  "queue full (" + std::to_string(options_.max_queue) +
                      " requests waiting)",
                  backoff);
    }
    ++waiters_;
    GM_GAUGE_SET("granmine_admission_queue_depth", "", waiters_);
    const auto wait_start = std::chrono::steady_clock::now();
    while (!slot_free()) {
      cv_.wait_for(lock,
                   std::chrono::milliseconds(
                       options_.queue_poll_ms > 0 ? options_.queue_poll_ms
                                                  : 1));
      if (governor != nullptr && governor->stopped()) {
        --waiters_;
        GM_GAUGE_SET("granmine_admission_queue_depth", "", waiters_);
        lock.unlock();
        return Shed(StopCause::kCancelled, "request cancelled while queued",
                    0);
      }
      if (deadline_ms > 0) {
        const double waited =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - wait_start)
                .count();
        const double service = P95Locked(cls);
        if (waited + service > static_cast<double>(deadline_ms)) {
          --waiters_;
          GM_GAUGE_SET("granmine_admission_queue_depth", "", waiters_);
          lock.unlock();
          return Shed(StopCause::kDeadline,
                      "deadline became infeasible while queued (waited " +
                          FormatMs(waited) + " ms of " +
                          std::to_string(deadline_ms) + " ms)",
                      service);
        }
      }
    }
    --waiters_;
    GM_GAUGE_SET("granmine_admission_queue_depth", "", waiters_);
  }
  ++active_[idx];
  lock.unlock();
  admitted_.fetch_add(1, std::memory_order_relaxed);
  NoteAdmitted(cls);
  return Ticket(this, cls, seq, std::chrono::steady_clock::now());
}

void AdmissionController::Release(RequestClass cls, std::uint64_t seq,
                                  double service_ms) {
  if (injector_ != nullptr &&
      injector_->ShouldFail(FaultKind::kSlowWorker, GovernorScope::kGeneral,
                            seq)) {
    service_ms = options_.injected_slow_ms;
  }
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto idx = static_cast<std::size_t>(cls);
    --active_[idx];
    samples_[idx][sample_next_[idx]] = service_ms;
    sample_next_[idx] = (sample_next_[idx] + 1) % kServiceWindow;
    sample_count_[idx] = std::min(sample_count_[idx] + 1, kServiceWindow);
    wake = waiters_ > 0;
  }
  if (wake) cv_.notify_all();
}

}  // namespace granmine
