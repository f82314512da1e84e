#include "exec/thread_pool.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace tpsl {
namespace exec {

namespace {

// Pool-wide instrumentation: where tasks spend their time (queued vs.
// running) and how deep the queue runs. Handles are registered once;
// the per-task cost is two clock reads and three relaxed adds.
obs::Histogram* QueueWaitHist() {
  static obs::Histogram* hist = obs::MetricsRegistry::Default().GetHistogram(
      "exec.queue_wait_seconds");
  return hist;
}

obs::Histogram* TaskRunHist() {
  static obs::Histogram* hist =
      obs::MetricsRegistry::Default().GetHistogram("exec.task_run_seconds");
  return hist;
}

obs::Counter* TasksCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Default().GetCounter("exec.tasks");
  return counter;
}

obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Default().GetGauge("exec.queue_depth");
  return gauge;
}

}  // namespace

uint32_t ResolveThreadCount(uint32_t requested, uint32_t cap) {
  uint32_t threads =
      requested != 0 ? requested : std::thread::hardware_concurrency();
  threads = std::max<uint32_t>(1, threads);
  if (cap != 0) {
    threads = std::min(threads, cap);
  }
  return threads;
}

ThreadPool::ThreadPool(uint32_t num_threads)
    : num_threads_(ResolveThreadCount(num_threads)) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::EnsureStartedLocked() {
  if (started_) {
    return;
  }
  started_ = true;
  workers_.reserve(num_threads_);
  for (uint32_t t = 0; t < num_threads_; ++t) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this);
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  TPSL_CHECK(task != nullptr);
  const int64_t enqueue_ns = obs::TraceNowNanos();
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TPSL_CHECK(!stop_);  // Submit after destruction began is a bug.
    queue_.push_back({std::move(task), enqueue_ns});
    depth = queue_.size();
    EnsureStartedLocked();
  }
  QueueDepthGauge()->Set(static_cast<double>(depth));
  work_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ with a drained queue: clean exit
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const int64_t start_ns = obs::TraceNowNanos();
    QueueWaitHist()->RecordNanos(
        start_ns > task.enqueue_ns
            ? static_cast<uint64_t>(start_ns - task.enqueue_ns)
            : 0);
    obs::EmitComplete("exec.queue_wait", "exec", task.enqueue_ns,
                      start_ns - task.enqueue_ns);
    task.fn();  // a throw escapes the thread and ends the process
    const int64_t end_ns = obs::TraceNowNanos();
    TaskRunHist()->RecordNanos(static_cast<uint64_t>(end_ns - start_ns));
    TasksCounter()->Increment();
    obs::EmitComplete("exec.task", "exec", start_ns, end_ns - start_ns);
  }
}

ThreadPool& ThreadPool::Global() {
  // A function-local static (not a leaked pointer) so the workers are
  // joined at exit and sanitizer runs end with no live threads.
  static ThreadPool pool(0);
  return pool;
}

TaskGroup::~TaskGroup() {
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return pending_ == 0; });
}

void TaskGroup::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
  }
  pool_.Submit([this, task = std::move(task)]() mutable {
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_exception_) {
        first_exception_ = std::current_exception();
      }
    }
    // Release the task's captures before the group's Wait()er can
    // return and destroy what they reference.
    task = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --pending_;
      if (pending_ == 0) {
        done_cv_.notify_all();
      }
    }
  });
}

void TaskGroup::Wait() {
  std::exception_ptr exception;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    std::swap(exception, first_exception_);
  }
  if (exception) {
    std::rethrow_exception(exception);
  }
}

}  // namespace exec
}  // namespace tpsl
