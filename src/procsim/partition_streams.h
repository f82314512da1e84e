#ifndef TPSL_PROCSIM_PARTITION_STREAMS_H_
#define TPSL_PROCSIM_PARTITION_STREAMS_H_

#include <cstdint>
#include <vector>

#include "graph/edge_stream.h"
#include "graph/types.h"
#include "util/status.h"

namespace tpsl {

/// What one discovery pass over the partition streams learns: the
/// vertex universe, per-partition edge counts, the replica structure
/// that drives simulated sync traffic, and (optionally) degrees. All
/// O(|V| + k) state — the pass never materializes an edge.
struct PartitionTopology {
  VertexId num_vertices = 0;  // max vertex id + 1; 0 when no edges
  uint64_t num_edges = 0;
  std::vector<uint64_t> partition_edges;
  /// Undirected degree per vertex; filled only when requested.
  std::vector<uint32_t> degree;
  /// Σ_v max(replicas(v) - 1, 0): replicas beyond the master.
  uint64_t mirrors = 0;
  /// Σ_v replicas(v).
  uint64_t total_replicas = 0;
};

/// One sequential pass per partition stream. Streams are Reset() by
/// the pass; a failing stream surfaces its Health() error.
StatusOr<PartitionTopology> DiscoverTopology(
    const std::vector<EdgeStream*>& partitions, bool with_degrees);

}  // namespace tpsl

#endif  // TPSL_PROCSIM_PARTITION_STREAMS_H_
