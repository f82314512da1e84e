#include "procsim/partition_streams.h"

#include <cstdint>

#include "partition/replica_matrix.h"

namespace tpsl {

StatusOr<PartitionTopology> DiscoverTopology(
    const std::vector<EdgeStream*>& partitions, bool with_degrees) {
  PartitionTopology topology;
  topology.partition_edges.assign(partitions.size(), 0);
  // Mirror accounting on the kernel's replica matrix: Set() is
  // idempotent per (vertex, partition), so each partition's pass can
  // just mark both endpoints; replicas, covered vertices and mirrors
  // are counted from the matrix at the end.
  ReplicaMatrix replicas(0, static_cast<uint32_t>(partitions.size()));
  for (uint32_t p = 0; p < partitions.size(); ++p) {
    TPSL_RETURN_IF_ERROR(ForEachEdge(*partitions[p], [&](const Edge& e) {
      const VertexId top = std::max(e.first, e.second);
      if (top >= replicas.num_vertices()) {
        replicas.GrowVertices(top + 1);
        if (with_degrees) {
          topology.degree.resize(top + 1, 0);
        }
      }
      ++topology.partition_edges[p];
      if (with_degrees) {
        ++topology.degree[e.first];
        ++topology.degree[e.second];
      }
      replicas.Set(e.first, p);
      replicas.Set(e.second, p);
    }));
    topology.num_edges += topology.partition_edges[p];
  }
  topology.num_vertices = replicas.num_vertices();
  topology.total_replicas = replicas.TotalReplicas();
  // Each covered vertex has one master; every further replica is a
  // mirror.
  topology.mirrors = topology.total_replicas - replicas.CoveredVertices();
  return topology;
}

}  // namespace tpsl
