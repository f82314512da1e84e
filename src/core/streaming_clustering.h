#ifndef TPSL_CORE_STREAMING_CLUSTERING_H_
#define TPSL_CORE_STREAMING_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "exec/exec_context.h"
#include "graph/degrees.h"
#include "graph/edge_stream.h"
#include "graph/types.h"
#include "util/status.h"

namespace tpsl {

/// Configuration of 2PS-L Phase 1 (paper Algorithm 1): a streaming
/// vertex-clustering pass extending Hollocou et al. with (a) exact
/// upfront degrees, (b) a hard cluster-volume cap and (c) optional
/// re-streaming.
struct ClusteringConfig {
  /// Number of streaming passes (paper default: 1, i.e. no
  /// re-streaming; Figs. 7-8 sweep 1..8).
  uint32_t num_passes = 1;

  /// Cluster volume cap as a multiple of the average partition volume
  /// 2|E|/k. The paper mandates a cap but leaves the value open
  /// (§III-A2); our ablation (bench/ablation_design_choices) shows
  /// sub-partition-sized clusters (0.25x) partition best, because they
  /// bound the damage of volume-greedy mis-migrations and give the
  /// scheduler packing freedom. A factor of k makes the cap 2|E|, which
  /// never binds: the original Hollocou behaviour, unbounded clusters.
  double volume_cap_factor = 0.25;
};

/// Result of the clustering phase, reused by Phase 2 as shared state.
///
/// Phase-1 footprint: 16 B per vertex slot — the 4 B degree table, the
/// 4 B labels (built in place as vertex_cluster) and an 8 B volume per
/// label. Finalize allocates nothing per vertex: it renumbers the
/// labels in place, using the volume array as its label -> dense id
/// table, frees it, and only then sizes cluster_volumes (8 B per
/// cluster).
struct Clustering {
  /// Vertex -> cluster id, compacted to [0, num_clusters).
  std::vector<ClusterId> vertex_cluster;

  /// Cluster volumes: sum of (full) degrees of member vertices.
  std::vector<uint64_t> cluster_volumes;

  uint32_t num_clusters() const {
    return static_cast<uint32_t>(cluster_volumes.size());
  }

  uint64_t HeapBytes() const {
    return vertex_cluster.size() * sizeof(ClusterId) +
           cluster_volumes.size() * sizeof(uint64_t);
  }
};

/// Runs Algorithm 1 (the 2PS-L Phase 1) on the execution engine: the
/// streaming passes ride exec::ParallelForEdges with the clustering
/// state held in relaxed atomics, so clustering scales with the same
/// worker pool as Phase 2. `degrees` must cover every vertex id that
/// appears in `stream`; `num_partitions` is only used to derive the
/// volume cap. Performs `config.num_passes` passes over the stream.
///
/// Labeling: clusters are labeled by founding vertex id (v2c[v] = v on
/// first touch) instead of allocation order, so label assignment needs
/// no shared counter and no ordering. Migration decisions read only
/// volumes and degrees — never label values — and compaction renumbers
/// by first member in vertex-scan order. Vertex slots that never appear
/// in the stream keep kInvalidCluster. With exec.threads == 1 (the
/// engine's in-order inline path) the result is deterministic.
///
/// With threads > 1, workers race on volumes and membership with
/// relaxed atomics: decisions may use stale volumes and the cap can be
/// transiently overshot (bounded by one migration per in-flight
/// worker), which drifts *quality*, never correctness — the returned
/// cluster_volumes are recomputed exactly from final membership, and
/// every streamed vertex ends up in exactly one cluster.
StatusOr<Clustering> ParallelStreamingClustering(
    EdgeStream& stream, const DegreeTable& degrees, uint32_t num_partitions,
    const ClusteringConfig& config, const exec::ExecContext& exec);

/// ParallelStreamingClustering on one thread (a default ExecContext):
/// the deterministic, sequential Algorithm 1.
StatusOr<Clustering> StreamingClustering(EdgeStream& stream,
                                         const DegreeTable& degrees,
                                         uint32_t num_partitions,
                                         const ClusteringConfig& config);

}  // namespace tpsl

#endif  // TPSL_CORE_STREAMING_CLUSTERING_H_
