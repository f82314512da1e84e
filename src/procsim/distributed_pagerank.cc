#include "procsim/distributed_pagerank.h"

#include <algorithm>
#include <span>

#include "graph/in_memory_edge_stream.h"
#include "procsim/partition_streams.h"

namespace tpsl {

StatusOr<DistributedRunResult> SimulateDistributedPageRank(
    const std::vector<EdgeStream*>& partitions, const PageRankConfig& pagerank,
    const ClusterModel& cluster) {
  if (partitions.empty()) {
    return Status::InvalidArgument("no partitions");
  }
  if (cluster.num_workers == 0) {
    return Status::InvalidArgument("num_workers must be positive");
  }

  // Discovery pass: vertex universe, degrees, replica structure. O(|V|)
  // state; the edges stay on whatever storage backs the streams.
  TPSL_ASSIGN_OR_RETURN(const PartitionTopology topology,
                        DiscoverTopology(partitions, /*with_degrees=*/true));
  if (topology.num_edges == 0) {
    return Status::InvalidArgument("empty partitioning");
  }
  const VertexId n = topology.num_vertices;

  DistributedRunResult result;
  result.num_edges = topology.num_edges;
  result.total_replicas = topology.total_replicas;
  // Mirror sync: every replica beyond the master exchanges 2 messages
  // per iteration (partial sum up, fresh rank down).
  const uint64_t messages_per_iteration = 2 * topology.mirrors;

  // The slowest worker bounds per-iteration compute (workers hold
  // whole partitions; with k > workers, partitions are distributed
  // round-robin).
  std::vector<uint64_t> worker_edges(cluster.num_workers, 0);
  for (uint32_t p = 0; p < partitions.size(); ++p) {
    worker_edges[p % cluster.num_workers] += topology.partition_edges[p];
  }
  const uint64_t max_worker_edges =
      *std::max_element(worker_edges.begin(), worker_edges.end());

  const double compute_seconds_per_iter =
      static_cast<double>(max_worker_edges) * cluster.per_edge_ns * 1e-9;
  const double network_seconds_per_iter =
      static_cast<double>(messages_per_iteration) * cluster.per_message_ns *
      1e-9 / cluster.num_workers;
  const double overhead_seconds_per_iter = cluster.per_iteration_ms * 1e-3;

  // --- Execute the actual PageRank math (real values, edge-parallel
  // gather per partition == master-side aggregation). Each iteration
  // re-streams every partition — the out-of-core access pattern of a
  // disk-backed deployment. ---
  std::vector<double> rank(n, 1.0 / n);
  std::vector<double> acc(n, 0.0);
  const std::vector<uint32_t>& degree = topology.degree;
  const double base = (1.0 - pagerank.damping) / n;
  for (uint32_t iter = 0; iter < pagerank.iterations; ++iter) {
    std::fill(acc.begin(), acc.end(), 0.0);
    for (EdgeStream* part : partitions) {
      TPSL_RETURN_IF_ERROR(ForEachEdge(*part, [&](const Edge& e) {
        // Undirected gather: both endpoints contribute to each other.
        acc[e.second] += rank[e.first] / degree[e.first];
        acc[e.first] += rank[e.second] / degree[e.second];
      }));
    }
    for (VertexId v = 0; v < n; ++v) {
      rank[v] = base + pagerank.damping * acc[v];
    }
  }

  result.ranks = std::move(rank);
  result.total_messages =
      static_cast<uint64_t>(messages_per_iteration) * pagerank.iterations;
  result.simulated_seconds =
      pagerank.iterations * (compute_seconds_per_iter +
                             network_seconds_per_iter +
                             overhead_seconds_per_iter);
  return result;
}

StatusOr<DistributedRunResult> SimulateDistributedPageRank(
    const std::vector<std::vector<Edge>>& partitions,
    const PageRankConfig& pagerank, const ClusterModel& cluster) {
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
  return SimulateDistributedPageRank(pointers, pagerank, cluster);
}

}  // namespace tpsl
