#include "granmine/common/executor.h"

#include <algorithm>

#include "granmine/obs/obs.h"

namespace granmine {

Executor::Executor(int num_threads) : num_threads_(Resolve(num_threads)) {
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int w = 1; w < num_threads_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  job_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void Executor::DrainJob(Job* job, int worker) {
  while (true) {
    if (job->failed.load(std::memory_order_relaxed)) break;
    if (job->cancel != nullptr &&
        job->cancel->load(std::memory_order_relaxed)) {
      break;
    }
    std::size_t index = job->next.fetch_add(1, std::memory_order_relaxed);
    if (index >= job->count) break;
    try {
#if GRANMINE_OBS_ENABLED
      // Per-item latency is only timed when metrics are on; items are
      // chunk-sized (ms scale), so the two clock reads are in the noise.
      const bool timed = obs::MetricsRegistry::Global().enabled();
      const std::uint64_t started_us = timed ? obs::NowMicros() : 0;
#endif
      (*job->body)(index, worker);
#if GRANMINE_OBS_ENABLED
      if (timed) {
        GM_COUNTER_ADD("granmine_executor_items_total", "", 1);
        GM_HISTOGRAM_OBSERVE("granmine_executor_task_us", "",
                             obs::NowMicros() - started_us);
      }
#endif
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(job->failure_mutex);
        if (job->first_exception == nullptr) {
          job->first_exception = std::current_exception();
        }
      }
      job->failed.store(true, std::memory_order_relaxed);
      break;
    }
  }
}

void Executor::WorkerLoop(int worker) {
  std::uint64_t seen_epoch = 0;
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_ready_.wait(lock, [&] {
        return shutdown_ || (job_ != nullptr && job_epoch_ != seen_epoch);
      });
      if (shutdown_) return;
      seen_epoch = job_epoch_;
      job = job_;
    }
    DrainJob(job, worker);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++job->workers_finished;  // last access to the job; see Job comment
    }
    job_done_.notify_all();
  }
}

void Executor::ParallelFor(std::size_t count,
                           const std::function<void(std::size_t, int)>& body,
                           const std::atomic<bool>* cancel) {
  if (count == 0) return;
  Job job;
  job.count = count;
  job.body = &body;
  job.cancel = cancel;
  bool run_inline = num_threads_ == 1;
  if (!run_inline) {
    std::lock_guard<std::mutex> lock(mutex_);
    run_inline = job_ != nullptr;  // another caller's loop holds the pool
    if (!run_inline) {
      job_ = &job;
      ++job_epoch_;
    }
  }
  if (run_inline) {
    // Inline path: exceptions propagate naturally; the cancel token is
    // observed between items, mirroring the pool's claim-time check.
    if (num_threads_ > 1) {
      GM_COUNTER_ADD("granmine_executor_inline_jobs_total", "", 1);
    }
    for (std::size_t i = 0; i < count; ++i) {
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) break;
      body(i, 0);
    }
    return;
  }
  GM_COUNTER_ADD("granmine_executor_jobs_total", "", 1);
  GM_GAUGE_SET("granmine_executor_queue_depth", "",
               static_cast<std::int64_t>(count));
  job_ready_.notify_all();
  // The calling thread is worker 0.
  DrainJob(&job, 0);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Every pool worker visits each job exactly once (the epoch check), so
    // draining is complete — and the stack-allocated job safe to destroy —
    // exactly when all of them have checked back in.
    job_done_.wait(lock,
                   [&] { return job.workers_finished == num_threads_ - 1; });
    job_ = nullptr;
  }
  GM_GAUGE_SET("granmine_executor_queue_depth", "", 0);
  // All workers have detached, so first_exception is stable without the
  // failure mutex. Rethrow on the caller per the executor.h guarantee.
  if (job.first_exception != nullptr) {
    std::rethrow_exception(job.first_exception);
  }
}

}  // namespace granmine
