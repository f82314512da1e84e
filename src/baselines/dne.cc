#include "baselines/dne.h"

#include <algorithm>
#include <atomic>
#include <queue>
#include <utility>
#include <vector>

#include "baselines/ne.h"
#include "exec/thread_pool.h"
#include "partition/score_tables.h"
#include "util/random.h"
#include "util/timer.h"

namespace tpsl {
namespace {

/// One partition's concurrent expansion over the shared owner array.
/// Claims up to `budget` edges for `partition`, starting from `seed`.
/// Heap priority is the static vertex degree (cheap and contention
/// free; the exact unclaimed degree is a sequential-NE luxury).
uint64_t ExpandConcurrent(const expansion::IndexedAdjacency& adjacency,
                          std::vector<std::atomic<PartitionId>>& owner,
                          PartitionId partition, VertexId seed,
                          uint64_t budget, uint64_t seed_salt) {
  using HeapEntry = std::pair<uint32_t, VertexId>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      boundary;
  boundary.push({adjacency.degree(seed), seed});
  SplitMix64 rng(seed_salt);

  uint64_t claimed = 0;
  while (claimed < budget) {
    if (boundary.empty()) {
      // Re-seed at a random vertex; skip a few collisions before
      // giving up so threads do not spin forever on a drained graph.
      bool found = false;
      for (int attempt = 0; attempt < 64 && !found; ++attempt) {
        const VertexId v = static_cast<VertexId>(
            rng.NextBounded(adjacency.num_vertices()));
        for (uint64_t i = adjacency.offsets[v]; i < adjacency.offsets[v + 1];
             ++i) {
          if (owner[adjacency.edge_ids[i]].load(std::memory_order_relaxed) ==
              kInvalidPartition) {
            boundary.push({adjacency.degree(v), v});
            found = true;
            break;
          }
        }
      }
      if (!found) {
        break;
      }
    }
    const auto [priority, v] = boundary.top();
    boundary.pop();
    for (uint64_t i = adjacency.offsets[v];
         i < adjacency.offsets[v + 1] && claimed < budget; ++i) {
      const uint64_t edge_id = adjacency.edge_ids[i];
      PartitionId expected = kInvalidPartition;
      if (owner[edge_id].compare_exchange_strong(expected, partition,
                                                 std::memory_order_relaxed)) {
        ++claimed;
        const VertexId other = adjacency.neighbors[i];
        if (other != v) {
          boundary.push({adjacency.degree(other), other});
        }
      }
    }
  }
  return claimed;
}

}  // namespace

Status DnePartitioner::Partition(EdgeStream& stream,
                                 const PartitionConfig& config,
                                 AssignmentSink& sink,
                                 PartitionStats* stats) {
  if (config.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  PartitionStats local;
  PartitionStats& out = stats != nullptr ? *stats : local;

  std::vector<Edge> edges;
  VertexId max_id = 0;
  {
    PhaseTimer timer(&out, "load");
    edges.reserve(stream.NumEdgesHint());
    TPSL_RETURN_IF_ERROR(ForEachEdge(stream, [&](const Edge& e) {
      edges.push_back(e);
      max_id = std::max({max_id, e.first, e.second});
    }));
  }
  out.stream_passes += 1;

  PhaseTimer timer(&out, "partitioning");
  const uint32_t k = config.num_partitions;
  const VertexId num_vertices = edges.empty() ? 0 : max_id + 1;
  const expansion::IndexedAdjacency adjacency =
      expansion::IndexedAdjacency::Build(edges, num_vertices);

  std::vector<std::atomic<PartitionId>> owner(edges.size());
  for (auto& slot : owner) {
    slot.store(kInvalidPartition, std::memory_order_relaxed);
  }

  const uint64_t share = edges.empty() ? 0 : (edges.size() + k - 1) / k;
  // A worker per partition is the most DNE can use.
  const uint32_t num_threads = config.exec.ResolveThreads(/*cap=*/k);

  if (!edges.empty()) {
    // Deterministic spread of seeds over the id space; each engine task
    // expands the same stride-t partition set the dedicated threads
    // used to.
    exec::TaskGroup group(config.exec.pool_or_global());
    for (uint32_t t = 0; t < num_threads; ++t) {
      group.Submit([&, t]() {
        for (PartitionId p = t; p < k; p += num_threads) {
          const VertexId seed = static_cast<VertexId>(
              (static_cast<uint64_t>(p) * num_vertices) / k);
          ExpandConcurrent(adjacency, owner, p, seed, share,
                           config.seed + p);
        }
      });
    }
    group.Wait();
  }

  // Sequential epilogue: any edge left unclaimed (possible when
  // expansions exhausted their budgets around collisions) goes to the
  // least-loaded partition; then emit everything in edge order. Only
  // the load half of the kernel is needed (zero-vertex table).
  const uint64_t capacity = config.PartitionCapacity(edges.size());
  ScoreTables tables(0, k, capacity);
  for (const auto& slot : owner) {
    const PartitionId p = slot.load(std::memory_order_relaxed);
    if (p != kInvalidPartition) {
      tables.AddLoad(p);
    }
  }
  for (uint64_t id = 0; id < edges.size(); ++id) {
    PartitionId p = owner[id].load(std::memory_order_relaxed);
    if (p == kInvalidPartition || tables.load(p) > capacity) {
      if (p != kInvalidPartition) {
        tables.SubLoad(p);  // Over-claimed: move one edge out.
      }
      p = tables.LeastLoaded();
      tables.AddLoad(p);
      owner[id].store(p, std::memory_order_relaxed);
    }
    sink.Assign(edges[id], p);
  }

  out.state_bytes = edges.size() * sizeof(Edge) + adjacency.HeapBytes() +
                    owner.size() * sizeof(PartitionId) + tables.HeapBytes();
  return Status::OK();
}

}  // namespace tpsl
