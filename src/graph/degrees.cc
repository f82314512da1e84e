#include "graph/degrees.h"

#include <sys/mman.h>

#include <algorithm>
#include <mutex>
#include <new>
#include <string>
#include <thread>

#include "exec/parallel_for_edges.h"

namespace tpsl {
namespace {

Status InvalidVertexError() {
  return Status::InvalidArgument("edge endpoint " +
                                 std::to_string(kInvalidVertex) +
                                 " is the reserved invalid vertex id");
}

StatusOr<DegreeTable> ComputeDegreesInline(EdgeStream& stream) {
  DegreeTable table;
  bool saw_invalid = false;
  Status status = ForEachEdge(stream, [&](const Edge& e) {
    const VertexId hi = std::max(e.first, e.second);
    if (hi >= table.degrees.size()) {
      if (hi == kInvalidVertex) {
        // 2^32 slots here, and a 2^32-row replication matrix after.
        saw_invalid = true;
        return;
      }
      table.degrees.resize(static_cast<size_t>(hi) + 1, 0);
    }
    ++table.degrees[e.first];
    ++table.degrees[e.second];
    ++table.num_edges;
  });
  if (!status.ok()) {
    return status;
  }
  if (saw_invalid) {
    return InvalidVertexError();
  }
  return table;
}

/// Allocator for the tables the parallel pass grows on worker threads:
/// each block is its own anonymous mapping, unmapped when freed. From
/// malloc, a block grown on a worker would come from that thread's
/// arena, and glibc keeps a freed arena top resident (malloc_trim trims
/// only the main arena's), so the pass would leave |V|·(4 + W) bytes in
/// the process after it.
template <typename T>
class MappedAllocator {
 public:
  using value_type = T;

  MappedAllocator() = default;
  template <typename U>
  MappedAllocator(const MappedAllocator<U>&) noexcept {}

  T* allocate(size_t n) {
    void* block = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (block == MAP_FAILED) {
      throw std::bad_alloc();
    }
    return static_cast<T*>(block);
  }

  void deallocate(T* block, size_t n) noexcept {
    ::munmap(block, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const MappedAllocator<U>&) const noexcept {
    return true;
  }
};

/// A batch's private counters: one byte per vertex, wrapping at 256,
/// the vertices whose byte wrapped during the batch, and the thread
/// that counted into them last.
struct ByteCounters {
  std::vector<uint8_t, MappedAllocator<uint8_t>> counts;
  std::vector<VertexId> wraps;
  std::thread::id last_thread;
};

StatusOr<DegreeTable> ComputeDegreesParallel(EdgeStream& stream,
                                             const exec::ExecContext& exec,
                                             uint32_t workers) {
  // ParallelForEdges keeps at most `workers` batches in flight, so the
  // free list is never empty when a batch takes from it.
  std::vector<ByteCounters> counters(workers);
  std::vector<uint32_t> free_ids;
  for (uint32_t id = 0; id < workers; ++id) {
    free_ids.push_back(id);
  }
  std::vector<uint32_t, MappedAllocator<uint32_t>> degrees;
  uint64_t num_edges = 0;
  bool saw_invalid = false;
  std::mutex mutex;  // guards degrees, num_edges, free_ids, saw_invalid

  Status status = exec::ParallelForEdges(
      stream, exec, [&](const Edge* edges, size_t count) -> Status {
        // A table this thread used last is still in its cache; one
        // that another core wrote would be pulled over line by line.
        const std::thread::id self = std::this_thread::get_id();
        uint32_t id;
        {
          std::lock_guard<std::mutex> lock(mutex);
          size_t pick = free_ids.size() - 1;
          for (size_t i = 0; i < free_ids.size(); ++i) {
            if (counters[free_ids[i]].last_thread == self) {
              pick = i;
              break;
            }
          }
          id = free_ids[pick];
          free_ids[pick] = free_ids.back();
          free_ids.pop_back();
        }
        ByteCounters& local = counters[id];
        local.last_thread = self;
        // Kept in locals: a store through a byte pointer may alias the
        // vector's own fields, which would reload them per edge.
        uint8_t* counts = local.counts.data();
        size_t slots = local.counts.size();
        size_t invalid = 0;
        for (size_t i = 0; i < count; ++i) {
          const Edge e = edges[i];
          const VertexId hi = std::max(e.first, e.second);
          if (hi >= slots) {
            if (hi == kInvalidVertex) {
              ++invalid;
              continue;
            }
            local.counts.resize(static_cast<size_t>(hi) + 1, 0);
            counts = local.counts.data();
            slots = local.counts.size();
          }
          if (++counts[e.first] == 0) {
            local.wraps.push_back(e.first);
          }
          if (++counts[e.second] == 0) {
            local.wraps.push_back(e.second);
          }
        }
        // Each private table is as long as the largest id any batch
        // counted into it, so after this the shared table is as long as
        // every private one.
        std::lock_guard<std::mutex> lock(mutex);
        if (degrees.size() < slots) {
          degrees.resize(slots, 0);
        }
        for (const VertexId v : local.wraps) {
          degrees[v] += 256;
        }
        local.wraps.clear();
        num_edges += count - invalid;
        saw_invalid |= invalid > 0;
        free_ids.push_back(id);
        return Status::OK();
      });
  if (!status.ok()) {
    return status;
  }
  if (saw_invalid) {
    return InvalidVertexError();
  }
  for (ByteCounters& local : counters) {
    for (size_t v = 0; v < local.counts.size(); ++v) {
      degrees[v] += local.counts[v];
    }
    local = ByteCounters{};
  }
  // The returned table is allocated here, on the calling thread.
  DegreeTable table;
  table.degrees.assign(degrees.begin(), degrees.end());
  table.num_edges = num_edges;
  return table;
}

}  // namespace

StatusOr<DegreeTable> ComputeDegrees(EdgeStream& stream,
                                     const exec::ExecContext& exec) {
  const uint32_t workers = exec.Workers();
  if (workers <= 1) {
    return ComputeDegreesInline(stream);
  }
  return ComputeDegreesParallel(stream, exec, workers);
}

}  // namespace tpsl
