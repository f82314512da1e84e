#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/exec_context.h"
#include "exec/parallel_for_edges.h"
#include "exec/thread_pool.h"
#include "graph/in_memory_edge_stream.h"

namespace tpsl {
namespace exec {
namespace {

TEST(ResolveThreadCountTest, ZeroMeansHardwareConcurrency) {
  const uint32_t resolved = ResolveThreadCount(0);
  EXPECT_GE(resolved, 1u);
  const uint32_t hardware = std::thread::hardware_concurrency();
  if (hardware != 0) {
    EXPECT_EQ(resolved, hardware);
  }
}

TEST(ResolveThreadCountTest, ExplicitCountPassesThrough) {
  EXPECT_EQ(ResolveThreadCount(3), 3u);
  EXPECT_EQ(ResolveThreadCount(1), 1u);
}

TEST(ResolveThreadCountTest, CapBounds) {
  EXPECT_EQ(ResolveThreadCount(16, 4), 4u);
  EXPECT_EQ(ResolveThreadCount(2, 4), 2u);
  EXPECT_EQ(ResolveThreadCount(0, 1), 1u);
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter]() { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // never started, nothing pending
  EXPECT_EQ(pool.num_threads(), 2u);
}

TEST(ThreadPoolTest, ShutdownUnderPendingWorkDrainsEverything) {
  // More tasks than workers, each slow enough that the queue is still
  // full when the destructor runs: shutdown must complete every
  // submitted task (drain semantics), then join cleanly.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&counter]() {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        counter.fetch_add(1);
      });
    }
    // No Wait(): destruction races with a mostly unconsumed queue.
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughWait) {
  ThreadPool pool(2);
  std::atomic<int> survivors{0};
  pool.Submit([]() { throw std::runtime_error("task boom"); });
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&survivors]() { survivors.fetch_add(1); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The throwing task took down neither its worker nor the pool.
  EXPECT_EQ(survivors.load(), 8);
  pool.Submit([&survivors]() { survivors.fetch_add(1); });
  pool.Wait();  // exception was cleared by the previous Wait
  EXPECT_EQ(survivors.load(), 9);
}

TEST(ThreadPoolTest, GlobalPoolIsShared) {
  ThreadPool& a = ThreadPool::Global();
  ThreadPool& b = ThreadPool::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_threads(), 1u);
}

TEST(TaskGroupTest, WaitCoversOnlyOwnTasks) {
  ThreadPool pool(4);
  std::atomic<int> mine{0};
  std::atomic<int> theirs{0};
  // A slow foreign task submitted directly to the pool must not block
  // the group's Wait().
  pool.Submit([&theirs]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    theirs.fetch_add(1);
  });
  TaskGroup group(pool);
  for (int i = 0; i < 16; ++i) {
    group.Submit([&mine]() { mine.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(mine.load(), 16);
  pool.Wait();
  EXPECT_EQ(theirs.load(), 1);
}

TEST(TaskGroupTest, ExceptionPropagatesThroughGroupWait) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  group.Submit([]() { throw std::runtime_error("group boom"); });
  EXPECT_THROW(group.Wait(), std::runtime_error);
  pool.Wait();  // the group caught the exception before the pool saw it
}

TEST(ExecContextTest, DefaultsToGlobalPool) {
  ExecContext context;
  EXPECT_EQ(&context.pool_or_global(), &ThreadPool::Global());
  ThreadPool owned(2);
  context.pool = &owned;
  EXPECT_EQ(&context.pool_or_global(), &owned);
  context.threads = 7;
  EXPECT_EQ(context.ResolveThreads(), 7u);
  EXPECT_EQ(context.ResolveThreads(/*cap=*/3), 3u);
}

// Parallelism is opted into: a default context (and so a default
// PartitionConfig) runs engine-driven partitioners on one thread, while
// an explicit 0 still means one worker per hardware thread.
TEST(ExecContextTest, DefaultIsOneThreadAndZeroMeansHardware) {
  ExecContext context;
  EXPECT_EQ(context.threads, 1u);
  EXPECT_EQ(context.ResolveThreads(), 1u);
  context.threads = 0;
  EXPECT_EQ(context.ResolveThreads(), ResolveThreadCount(0));
  const uint32_t hardware = std::thread::hardware_concurrency();
  if (hardware != 0) {
    EXPECT_EQ(context.ResolveThreads(), hardware);
  }
}

std::vector<Edge> MakeEdges(size_t count) {
  std::vector<Edge> edges;
  edges.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    edges.push_back({static_cast<VertexId>(i),
                     static_cast<VertexId>(i + 1)});
  }
  return edges;
}

TEST(ParallelForEdgesTest, VisitsEveryEdgeExactlyOnce) {
  const auto edges = MakeEdges(10000);
  InMemoryEdgeStream stream(edges);
  ThreadPool pool(4);
  ExecContext context;
  context.pool = &pool;
  context.batch_size = 256;
  context.threads = 4;
  std::mutex mutex;
  std::set<VertexId> seen;
  std::atomic<uint64_t> total{0};
  const Status status = ParallelForEdges(
      stream, context, [&](const Edge* batch, size_t n) -> Status {
        total.fetch_add(n);
        std::lock_guard<std::mutex> lock(mutex);
        for (size_t i = 0; i < n; ++i) {
          seen.insert(batch[i].first);
        }
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(total.load(), edges.size());
  EXPECT_EQ(seen.size(), edges.size());  // no duplicates, no gaps
}

TEST(ParallelForEdgesTest, SingleWorkerPreservesStreamOrder) {
  const auto edges = MakeEdges(5000);
  // One worker requested on a bigger pool, and more threads requested
  // than a one-thread pool has: both clamp to one worker, so the pass
  // runs inline in stream order (and engines key their shared
  // CAS/atomic state off the same Workers() count).
  const struct {
    uint32_t pool_threads;
    uint32_t threads;
  } shapes[] = {{4, 1}, {1, 4}};
  for (const auto& shape : shapes) {
    InMemoryEdgeStream stream(edges);
    ThreadPool pool(shape.pool_threads);
    ExecContext context;
    context.pool = &pool;
    context.batch_size = 128;
    context.threads = shape.threads;
    EXPECT_EQ(context.Workers(), 1u) << shape.threads;
    std::vector<VertexId> order;
    const Status status = ParallelForEdges(
        stream, context, [&](const Edge* batch, size_t n) -> Status {
          for (size_t i = 0; i < n; ++i) {
            order.push_back(batch[i].first);
          }
          return Status::OK();
        });
    ASSERT_TRUE(status.ok()) << shape.threads;
    ASSERT_EQ(order.size(), edges.size()) << shape.threads;
    for (size_t i = 0; i < order.size(); ++i) {
      ASSERT_EQ(order[i], static_cast<VertexId>(i)) << shape.threads;
    }
  }
}

TEST(ParallelForEdgesTest, ReachesRequestedConcurrency) {
  // The scaling claim the 2psl_par_* scenarios stand on: with enough
  // batches of slow work, the in-flight bound is actually reached —
  // `workers` callbacks run simultaneously (sleeps overlap even on a
  // single hardware core, so this holds in 1-CPU CI containers too).
  const auto edges = MakeEdges(10000);
  for (const uint32_t workers : {2u, 4u}) {
    InMemoryEdgeStream stream(edges);
    ThreadPool pool(4);
    ExecContext context;
    context.pool = &pool;
    context.batch_size = 100;  // 100 batches per pass
    context.threads = workers;
    std::atomic<int> in_flight{0};
    std::atomic<int> peak{0};
    const Status status = ParallelForEdges(
        stream, context, [&](const Edge*, size_t) -> Status {
          const int now = in_flight.fetch_add(1) + 1;
          int seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          in_flight.fetch_sub(1);
          return Status::OK();
        });
    ASSERT_TRUE(status.ok()) << workers;
    EXPECT_EQ(peak.load(), static_cast<int>(workers)) << workers;
  }
}

TEST(ParallelForEdgesTest, WorkerErrorStopsDispatchAndPropagates) {
  const auto edges = MakeEdges(100000);
  InMemoryEdgeStream stream(edges);
  ThreadPool pool(4);
  ExecContext context;
  context.pool = &pool;
  context.batch_size = 64;
  context.threads = 4;
  std::atomic<uint64_t> processed{0};
  const Status status = ParallelForEdges(
      stream, context, [&](const Edge* batch, size_t n) -> Status {
        if (batch[0].first == 0) {
          return Status::Internal("first batch fails");
        }
        processed.fetch_add(n);
        return Status::OK();
      });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  // Dispatch stopped early: nowhere near the full stream was handed out.
  EXPECT_LT(processed.load(), edges.size());
}

TEST(ParallelForEdgesTest, WorkerExceptionBecomesStatus) {
  const auto edges = MakeEdges(1000);
  for (const uint32_t workers : {1u, 4u}) {
    InMemoryEdgeStream stream(edges);
    ThreadPool pool(4);
    ExecContext context;
    context.pool = &pool;
    context.batch_size = 64;
    context.threads = workers;
    const Status status = ParallelForEdges(
        stream, context, [&](const Edge*, size_t) -> Status {
          throw std::runtime_error("worker exploded");
        });
    EXPECT_FALSE(status.ok()) << workers;
    EXPECT_EQ(status.code(), StatusCode::kInternal) << workers;
  }
}

/// A stream that fails sticky mid-pass: delivers `good_batches` calls
/// worth of edges, then starts returning 0 with a non-OK Health — the
/// file-stream failure mode ParallelForEdges must surface.
class FailingStream : public EdgeStream {
 public:
  explicit FailingStream(size_t good_edges) : good_edges_(good_edges) {}

  Status Reset() override {
    delivered_ = 0;
    return Status::OK();
  }

  size_t Next(Edge* out, size_t capacity) override {
    if (delivered_ >= good_edges_) {
      failed_ = true;
      return 0;
    }
    const size_t n = std::min(capacity, good_edges_ - delivered_);
    for (size_t i = 0; i < n; ++i) {
      out[i] = {static_cast<VertexId>(delivered_ + i),
                static_cast<VertexId>(delivered_ + i + 1)};
    }
    delivered_ += n;
    return n;
  }

  Status Health() const override {
    return failed_ ? Status::IoError("disk on fire") : Status::OK();
  }

 private:
  size_t good_edges_;
  size_t delivered_ = 0;
  bool failed_ = false;
};

TEST(ParallelForEdgesTest, PropagatesStickyStreamHealth) {
  for (const uint32_t workers : {1u, 4u}) {
    FailingStream stream(1000);
    ThreadPool pool(4);
    ExecContext context;
    context.pool = &pool;
    context.batch_size = 128;
    context.threads = workers;
    std::atomic<uint64_t> total{0};
    const Status status = ParallelForEdges(
        stream, context, [&](const Edge*, size_t n) -> Status {
          total.fetch_add(n);
          return Status::OK();
        });
    EXPECT_FALSE(status.ok()) << workers;
    EXPECT_EQ(status.code(), StatusCode::kIoError) << workers;
    EXPECT_EQ(total.load(), 1000u) << workers;  // everything before the fail
  }
}

TEST(ParallelForEdgesTest, RejectsZeroBatchSize) {
  InMemoryEdgeStream stream({{0, 1}});
  ThreadPool pool(2);
  ExecContext context;
  context.pool = &pool;
  context.batch_size = 0;
  const Status status = ParallelForEdges(
      stream, context,
      [](const Edge*, size_t) -> Status { return Status::OK(); });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ParallelForEdgesTest, EmptyStreamIsFine) {
  for (const uint32_t workers : {1u, 4u}) {
    InMemoryEdgeStream stream(std::vector<Edge>{});
    ThreadPool pool(4);
    ExecContext context;
    context.pool = &pool;
    context.threads = workers;
    std::atomic<int> calls{0};
    const Status status = ParallelForEdges(
        stream, context, [&](const Edge*, size_t) -> Status {
          calls.fetch_add(1);
          return Status::OK();
        });
    EXPECT_TRUE(status.ok()) << workers;
    EXPECT_EQ(calls.load(), 0) << workers;
  }
}

}  // namespace
}  // namespace exec
}  // namespace tpsl
