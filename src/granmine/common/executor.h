#ifndef GRANMINE_COMMON_EXECUTOR_H_
#define GRANMINE_COMMON_EXECUTOR_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace granmine {

/// A small fixed thread pool for data-parallel loops. An executor with
/// `num_threads == 1` runs everything inline on the calling thread and never
/// spawns a worker, so serial callers pay nothing; with more threads the
/// calling thread participates as worker 0 alongside `num_threads - 1` pool
/// threads.
///
/// Work items are claimed from a shared atomic counter (dynamic load
/// balancing), but results are always collected by item index, so
/// `ParallelMap` output order — and anything a caller merges in index order —
/// is deterministic regardless of scheduling.
///
/// One parallel loop holds the pool at a time. The entry points accept
/// concurrent callers: a caller that finds the pool busy runs its whole loop
/// inline on its own thread as worker 0 (counted by
/// `granmine_executor_inline_jobs_total`), exactly like a one-thread pool.
/// Results are collected by index either way, so the output is unchanged.
/// The entry points block until every item has finished or been abandoned.
///
/// Failure guarantee: a body that throws does NOT take the process down.
/// The first exception (first to be *caught*, not lowest index) is captured,
/// every not-yet-claimed item is abandoned, in-flight items on other workers
/// run to completion, and the exception is rethrown on the calling thread
/// after all workers have detached. Items abandoned after a failure are
/// simply never run — `ParallelMap` slots for them keep their
/// default-constructed value, so callers that can fail mid-loop should carry
/// an explicit "ran" marker in their result type.
///
/// Cancellation guarantee: when `cancel` is given (e.g.
/// `ResourceGovernor::stop_flag()`), workers observe it before claiming each
/// item and stop claiming once it reads true. In-flight bodies are never
/// interrupted — cancellation is cooperative and the body is responsible for
/// observing the same token internally if it runs long.
class Executor {
 public:
  /// `num_threads <= 0` means "use the hardware concurrency".
  explicit Executor(int num_threads);
  ~Executor();

  /// The worker count `Executor(num_threads)` will actually run with.
  static int Resolve(int num_threads) {
    return num_threads > 0
               ? num_threads
               : static_cast<int>(
                     std::max(1u, std::thread::hardware_concurrency()));
  }

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs `body(index, worker)` for every index in [0, count); `worker` is in
  /// [0, num_threads) and is stable within one body invocation — use it to
  /// index per-worker scratch state. Blocks until all items complete (or are
  /// abandoned after a failure/cancellation; see the class comment).
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t, int)>& body,
                   const std::atomic<bool>* cancel = nullptr);

  /// ParallelFor that collects one result per index, in index order.
  /// Abandoned indices (failure or cancellation) keep value-initialized
  /// results.
  template <typename T>
  std::vector<T> ParallelMap(std::size_t count,
                             const std::function<T(std::size_t, int)>& body,
                             const std::atomic<bool>* cancel = nullptr) {
    std::vector<T> results(count);
    ParallelFor(
        count,
        [&](std::size_t index, int worker) {
          results[index] = body(index, worker);
        },
        cancel);
    return results;
  }

 private:
  struct Job {
    std::size_t count = 0;
    const std::function<void(std::size_t, int)>* body = nullptr;
    std::atomic<std::size_t> next{0};
    /// External cooperative-cancellation token; may be null.
    const std::atomic<bool>* cancel = nullptr;
    /// Set on the first body exception: remaining items are abandoned.
    std::atomic<bool> failed{false};
    /// First exception caught, rethrown by ParallelFor on the caller.
    std::exception_ptr first_exception;  // guarded by failure_mutex
    std::mutex failure_mutex;
    /// Pool workers that have fully detached from this job; guarded by
    /// mutex_. ParallelFor's Job lives on the caller's stack, so it may only
    /// return once every worker is past its last access — "all items done"
    /// alone would let a late-waking worker touch a destroyed job.
    int workers_finished = 0;
  };

  void WorkerLoop(int worker);
  /// Claims items from `job` until none remain, the job failed, or the
  /// cancel token reads true.
  static void DrainJob(Job* job, int worker);

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable job_ready_;
  std::condition_variable job_done_;
  Job* job_ = nullptr;          // guarded by mutex_
  std::uint64_t job_epoch_ = 0; // bumped per ParallelFor; guarded by mutex_
  bool shutdown_ = false;       // guarded by mutex_
};

}  // namespace granmine

#endif  // GRANMINE_COMMON_EXECUTOR_H_
