#ifndef TPSL_EXEC_EXEC_CONTEXT_H_
#define TPSL_EXEC_EXEC_CONTEXT_H_

#include <algorithm>
#include <cstdint>

#include "exec/thread_pool.h"

namespace tpsl {
namespace exec {

/// How much parallelism a run may use and where it comes from. Carried
/// through PartitionConfig so one knob reaches every parallel
/// partitioner (2PS-L/2PS-HDRF, DNE, the NE-family adjacency build) and
/// the ingest scenario runner; tools expose it as --threads.
struct ExecContext {
  /// Worker threads; 0 = one per hardware thread. The default 1 makes
  /// every engine-driven partitioner run sequentially (and
  /// deterministically: ParallelForEdges degrades to an in-order inline
  /// loop), so parallelism is always opted into.
  uint32_t threads = 1;

  /// Edges per Next() batch of ParallelForEdges (a block stream's
  /// parallel pass batches by its blocks instead).
  uint32_t batch_size = 8192;

  /// The pool to run on; nullptr = the lazily started process-wide
  /// ThreadPool::Global(). Tests and embedders substitute an owned pool
  /// here.
  ThreadPool* pool = nullptr;

  ThreadPool& pool_or_global() const {
    return pool != nullptr ? *pool : ThreadPool::Global();
  }

  /// The requested thread count, resolved (see ResolveThreadCount).
  uint32_t ResolveThreads(uint32_t cap = 0) const {
    return ResolveThreadCount(threads, cap);
  }

  /// The workers a ParallelForEdges pass really runs: the resolved
  /// thread count clamped to the pool's size, since in-flight batches
  /// beyond the pool buy no concurrency. 1 means the inline, in-order
  /// path, so engine state shared by workers can use plain stores.
  uint32_t Workers() const {
    return std::min(ResolveThreads(), pool_or_global().num_threads());
  }
};

}  // namespace exec
}  // namespace tpsl

#endif  // TPSL_EXEC_EXEC_CONTEXT_H_
