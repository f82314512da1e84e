#include "baselines/ne.h"

#include <algorithm>
#include <numeric>
#include <queue>
#include <utility>

#include "util/timer.h"

namespace tpsl {
namespace expansion {

IndexedAdjacency IndexedAdjacency::Build(const std::vector<Edge>& edges,
                                         VertexId num_vertices,
                                         const exec::ExecContext& exec) {
  // Stable counting sort over contiguous edge-id chunks, one per
  // thread. Chunk w counts its own per-vertex degrees; the sequential
  // reduce turns those into global offsets plus a per-chunk starting
  // cursor for every vertex, after which each chunk fills disjoint
  // slots in edge-id order — so entry (v, id) lands at the same index
  // for any chunk count, and the arrays are byte-identical at any
  // thread count. An empty edge list still gets one chunk.
  const uint32_t chunks = static_cast<uint32_t>(std::clamp<uint64_t>(
      edges.size(), 1, exec.ResolveThreads()));
  const size_t per_chunk = (edges.size() + chunks - 1) / chunks;
  // Runs body(w, lo, hi) for every chunk [lo, hi) of edge ids.
  const auto for_each_chunk = [&](const auto& body) {
    if (chunks == 1) {
      body(0, 0, edges.size());  // Inline on the caller; no pool.
      return;
    }
    exec::TaskGroup group(exec.pool_or_global());
    for (uint32_t w = 0; w < chunks; ++w) {
      const size_t lo = w * per_chunk;
      const size_t hi = std::min(edges.size(), lo + per_chunk);
      group.Submit([&body, w, lo, hi]() { body(w, lo, hi); });
    }
    group.Wait();
  };
  std::vector<std::vector<uint64_t>> chunk_cursor(
      chunks, std::vector<uint64_t>(num_vertices, 0));

  for_each_chunk([&](uint32_t w, size_t lo, size_t hi) {
    std::vector<uint64_t>& counts = chunk_cursor[w];
    for (size_t id = lo; id < hi; ++id) {
      ++counts[edges[id].first];
      ++counts[edges[id].second];
    }
  });

  // offsets[v+1] = Σ_w counts[w][v]; chunk w's cursor for v starts at
  // offsets[v] + counts of all earlier chunks (computed in place).
  IndexedAdjacency adj;
  adj.offsets.assign(static_cast<size_t>(num_vertices) + 1, 0);
  for (VertexId v = 0; v < num_vertices; ++v) {
    uint64_t running = adj.offsets[v];
    for (uint32_t w = 0; w < chunks; ++w) {
      const uint64_t count = chunk_cursor[w][v];
      chunk_cursor[w][v] = running;
      running += count;
    }
    adj.offsets[v + 1] = running;
  }
  adj.neighbors.resize(adj.offsets[num_vertices]);
  adj.edge_ids.resize(adj.offsets[num_vertices]);

  for_each_chunk([&](uint32_t w, size_t lo, size_t hi) {
    std::vector<uint64_t>& cursor = chunk_cursor[w];
    for (size_t id = lo; id < hi; ++id) {
      const Edge& e = edges[id];
      adj.neighbors[cursor[e.first]] = e.second;
      adj.edge_ids[cursor[e.first]++] = id;
      adj.neighbors[cursor[e.second]] = e.first;
      adj.edge_ids[cursor[e.second]++] = id;
    }
  });
  return adj;
}

Expander::Expander(const std::vector<Edge>* edges,
                   const IndexedAdjacency* adjacency)
    : edges_(edges),
      adjacency_(adjacency),
      num_edges_(edges->size()),
      edge_claimed_(edges->size()),
      unclaimed_degree_(adjacency->num_vertices(), 0),
      seed_order_(adjacency->num_vertices()) {
  for (VertexId v = 0; v < adjacency->num_vertices(); ++v) {
    unclaimed_degree_[v] = adjacency->degree(v);
  }
  std::iota(seed_order_.begin(), seed_order_.end(), 0);
  std::stable_sort(seed_order_.begin(), seed_order_.end(),
                   [this](VertexId a, VertexId b) {
                     return adjacency_->degree(a) < adjacency_->degree(b);
                   });
}

uint64_t Expander::ClaimVertexEdges(VertexId v, PartitionId partition,
                                    uint64_t budget, AssignmentSink& sink,
                                    std::vector<VertexId>* discovered) {
  uint64_t claimed = 0;
  const uint64_t begin = adjacency_->offsets[v];
  const uint64_t end = adjacency_->offsets[v + 1];
  for (uint64_t i = begin; i < end && claimed < budget; ++i) {
    const uint64_t edge_id = adjacency_->edge_ids[i];
    if (!edge_claimed_.TestAndSet(edge_id)) {
      continue;  // Already claimed by an earlier expansion.
    }
    const Edge& e = (*edges_)[edge_id];
    --unclaimed_degree_[e.first];
    --unclaimed_degree_[e.second];
    sink.Assign(e, partition);
    ++claimed;
    const VertexId other = adjacency_->neighbors[i];
    if (other != v && unclaimed_degree_[other] > 0) {
      discovered->push_back(other);
    }
  }
  claimed_total_ += claimed;
  return claimed;
}

uint64_t Expander::Expand(PartitionId partition, uint64_t budget,
                          AssignmentSink& sink) {
  // Min-heap of (unclaimed degree at push time, vertex); entries are
  // validated lazily against the current unclaimed degree.
  using HeapEntry = std::pair<uint32_t, VertexId>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      boundary;
  std::vector<VertexId> discovered;

  uint64_t claimed = 0;
  while (claimed < budget && claimed_total_ < num_edges_) {
    VertexId next = kInvalidVertex;
    while (!boundary.empty()) {
      const auto [score, v] = boundary.top();
      if (score != unclaimed_degree_[v]) {
        boundary.pop();  // Stale entry.
        if (unclaimed_degree_[v] > 0) {
          boundary.push({unclaimed_degree_[v], v});
        }
        continue;
      }
      if (score == 0) {
        boundary.pop();
        continue;
      }
      next = v;
      boundary.pop();
      break;
    }
    if (next == kInvalidVertex) {
      // Boundary exhausted: restart from the lowest-degree vertex that
      // still has unclaimed edges.
      while (seed_cursor_ < seed_order_.size() &&
             unclaimed_degree_[seed_order_[seed_cursor_]] == 0) {
        ++seed_cursor_;
      }
      if (seed_cursor_ >= seed_order_.size()) {
        break;  // All edges claimed.
      }
      next = seed_order_[seed_cursor_];
    }

    discovered.clear();
    claimed += ClaimVertexEdges(next, partition, budget - claimed, sink,
                                &discovered);
    for (const VertexId v : discovered) {
      boundary.push({unclaimed_degree_[v], v});
    }
  }
  return claimed;
}

uint64_t Expander::HeapBytes() const {
  return edge_claimed_.HeapBytes() +
         unclaimed_degree_.size() * sizeof(uint32_t) +
         seed_order_.size() * sizeof(VertexId);
}

}  // namespace expansion

Status NePartitioner::Partition(EdgeStream& stream,
                                const PartitionConfig& config,
                                AssignmentSink& sink,
                                PartitionStats* stats) {
  if (config.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  PartitionStats local;
  PartitionStats& out = stats != nullptr ? *stats : local;

  // In-memory by definition: materialize the edge list.
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
  const VertexId num_vertices = edges.empty() ? 0 : max_id + 1;
  const expansion::IndexedAdjacency adjacency =
      expansion::IndexedAdjacency::Build(edges, num_vertices, config.exec);
  expansion::Expander expander(&edges, &adjacency);

  out.state_bytes = edges.size() * sizeof(Edge) + adjacency.HeapBytes() +
                    expander.HeapBytes();

  const uint64_t capacity = config.PartitionCapacity(edges.size());
  // Fill partitions round by round with a 1/k share each; since
  // capacity >= ceil(|E|/k), the shares cover all edges.
  const uint64_t share =
      (edges.size() + config.num_partitions - 1) / config.num_partitions;
  std::vector<uint64_t> claimed(config.num_partitions, 0);
  for (PartitionId p = 0; p < config.num_partitions; ++p) {
    claimed[p] = expander.Expand(p, share, sink);
  }
  // Defensive sweep into remaining capacity (unreachable with the
  // budgets above, but keeps the contract airtight).
  for (PartitionId p = 0;
       p < config.num_partitions && expander.UnclaimedEdges() > 0; ++p) {
    claimed[p] += expander.Expand(p, capacity - claimed[p], sink);
  }
  return Status::OK();
}

}  // namespace tpsl
