#include "procsim/distributed_components.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "graph/in_memory_edge_stream.h"
#include "procsim/partition_streams.h"

namespace tpsl {

std::vector<VertexId> ReferenceComponents(const std::vector<Edge>& edges,
                                          VertexId num_vertices) {
  std::vector<VertexId> parent(num_vertices);
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&parent](VertexId v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (const Edge& e : edges) {
    const VertexId a = find(e.first);
    const VertexId b = find(e.second);
    if (a != b) {
      parent[std::max(a, b)] = std::min(a, b);
    }
  }
  // Canonicalize: label = min id in component.
  std::vector<VertexId> labels(num_vertices);
  for (VertexId v = 0; v < num_vertices; ++v) {
    labels[v] = find(v);
  }
  return labels;
}

StatusOr<ComponentsResult> SimulateDistributedComponents(
    const std::vector<EdgeStream*>& partitions, const ClusterModel& cluster) {
  if (partitions.empty()) {
    return Status::InvalidArgument("no partitions");
  }
  if (cluster.num_workers == 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }

  // Replica structure drives the per-iteration sync cost, exactly as
  // in the PageRank simulator.
  TPSL_ASSIGN_OR_RETURN(const PartitionTopology topology,
                        DiscoverTopology(partitions, /*with_degrees=*/false));
  if (topology.num_edges == 0) {
    return Status::InvalidArgument("empty partitioning");
  }
  const VertexId n = topology.num_vertices;

  std::vector<uint64_t> worker_edges(cluster.num_workers, 0);
  for (uint32_t p = 0; p < partitions.size(); ++p) {
    worker_edges[p % cluster.num_workers] += topology.partition_edges[p];
  }
  const uint64_t max_worker_edges =
      *std::max_element(worker_edges.begin(), worker_edges.end());
  const double seconds_per_iteration =
      static_cast<double>(max_worker_edges) * cluster.per_edge_ns * 1e-9 +
      static_cast<double>(2 * topology.mirrors) * cluster.per_message_ns *
          1e-9 / cluster.num_workers +
      cluster.per_iteration_ms * 1e-3;

  ComponentsResult result;
  result.labels.resize(n);
  std::iota(result.labels.begin(), result.labels.end(), 0);

  // Min-label propagation until a fixed point; each round re-streams
  // every partition from its backing storage.
  bool changed = true;
  while (changed) {
    changed = false;
    ++result.iterations;
    for (EdgeStream* part : partitions) {
      TPSL_RETURN_IF_ERROR(ForEachEdge(*part, [&](const Edge& e) {
        const VertexId lo =
            std::min(result.labels[e.first], result.labels[e.second]);
        if (result.labels[e.first] != lo) {
          result.labels[e.first] = lo;
          changed = true;
        }
        if (result.labels[e.second] != lo) {
          result.labels[e.second] = lo;
          changed = true;
        }
      }));
    }
  }
  result.simulated_seconds = result.iterations * seconds_per_iteration;
  result.total_messages =
      static_cast<uint64_t>(2 * topology.mirrors) * result.iterations;
  return result;
}

StatusOr<ComponentsResult> SimulateDistributedComponents(
    const std::vector<std::vector<Edge>>& partitions,
    const ClusterModel& cluster) {
  // Borrowing streams: the span constructor copies no edges.
  std::vector<InMemoryEdgeStream> streams;
  streams.reserve(partitions.size());
  for (const std::vector<Edge>& part : partitions) {
    streams.emplace_back(std::span<const Edge>(part));
  }
  std::vector<EdgeStream*> pointers;
  pointers.reserve(streams.size());
  for (InMemoryEdgeStream& stream : streams) {
    pointers.push_back(&stream);
  }
  return SimulateDistributedComponents(pointers, cluster);
}

}  // namespace tpsl
