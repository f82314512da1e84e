#ifndef TPSL_EXEC_THREAD_POOL_H_
#define TPSL_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tpsl {
namespace exec {

/// Resolves a requested worker count to an actual one: 0 means "one per
/// hardware thread" (never less than 1 — hardware_concurrency may
/// report 0), and a non-zero `cap` bounds the result (e.g. DNE never
/// needs more workers than partitions). The single place for the
/// hardware-concurrency-with-cap logic that the parallel partitioners
/// used to duplicate.
uint32_t ResolveThreadCount(uint32_t requested, uint32_t cap = 0);

/// A lazily started fixed-size worker pool with one FIFO task queue —
/// the shared execution engine under the parallel partitioners and the
/// ingest scenario runner (see README "Parallel execution").
///
/// Lifecycle: constructing a pool spawns nothing; the workers start on
/// the first Submit(). Destruction drains the queue (every submitted
/// task runs) and joins the workers, so shutdown under pending work is
/// a wait, never a drop or a detach.
///
/// Waiting and exceptions: the pool itself tracks no completion. A
/// caller that needs to wait for its tasks or get their exceptions back
/// submits through a TaskGroup. A task handed straight to Submit() must
/// not throw: an exception that reaches a worker ends the process
/// (std::terminate), rather than being swallowed while a waiter waits
/// for a result that never comes.
///
/// Submit() is thread-safe.
class ThreadPool {
 public:
  /// `num_threads` as understood by ResolveThreadCount (0 = hardware).
  explicit ThreadPool(uint32_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_threads() const { return num_threads_; }

  /// Enqueues a task; workers are spawned on the first call.
  void Submit(std::function<void()> task);

  /// The process-wide shared pool, sized to hardware concurrency and
  /// constructed (but not started) on first use. Partitioners reach it
  /// through ExecContext::pool_or_global(), so tests can substitute an
  /// owned pool.
  static ThreadPool& Global();

 private:
  void EnsureStartedLocked();
  void WorkerLoop();

  const uint32_t num_threads_;

  /// A queued task plus its enqueue timestamp, so the worker that
  /// dequeues it can attribute queue-wait vs. run time (obs
  /// histograms "exec.queue_wait_seconds" / "exec.task_run_seconds").
  struct QueuedTask {
    std::function<void()> fn;
    int64_t enqueue_ns = 0;
  };

  std::mutex mutex_;
  std::condition_variable work_cv_;  // pool -> workers: task available
  std::deque<QueuedTask> queue_;
  bool stop_ = false;
  bool started_ = false;
  std::vector<std::thread> workers_;
};

/// Tracks completion of one caller's tasks on a (possibly shared)
/// pool — the only way to wait for pool work. Submit() wraps the task
/// with a pending counter and an exception catcher; Wait() blocks on
/// this group's tasks only, never on other callers'. The destructor
/// waits too (without rethrowing), so a group can never outlive the
/// state its tasks capture. A task may not wait on a group of its own
/// pool (a task waiting on its own pool can deadlock a worker slot).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Submit(std::function<void()> task);

  /// Blocks until this group's tasks have finished; rethrows the first
  /// exception one of them threw (clearing it).
  void Wait();

 private:
  ThreadPool& pool_;
  std::mutex mutex_;
  std::condition_variable done_cv_;
  uint64_t pending_ = 0;
  std::exception_ptr first_exception_;
};

}  // namespace exec
}  // namespace tpsl

#endif  // TPSL_EXEC_THREAD_POOL_H_
