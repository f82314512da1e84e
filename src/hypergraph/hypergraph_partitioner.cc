#include "hypergraph/hypergraph_partitioner.h"

#include <algorithm>

#include "core/cluster_schedule.h"
#include "core/streaming_clustering.h"
#include "graph/degrees.h"
#include "partition/score_tables.h"
#include "util/random.h"

namespace tpsl {

HypergraphQuality ComputeHypergraphQuality(
    const Hypergraph& hypergraph, const std::vector<PartitionId>& assignment,
    uint32_t num_partitions) {
  HypergraphQuality quality;
  quality.partition_sizes.assign(num_partitions, 0);
  quality.num_hyperedges = hypergraph.edges.size();

  // Dense vertex covers on the kernel's replica matrix: Set() is
  // idempotent and the totals are counted by sweeping it, so no hash
  // sets are needed.
  ReplicaMatrix covers(hypergraph.NumVertices(), num_partitions);
  for (size_t i = 0; i < hypergraph.edges.size(); ++i) {
    const PartitionId p = assignment[i];
    ++quality.partition_sizes[p];
    for (const VertexId pin : hypergraph.edges[i].pins) {
      covers.Set(pin, p);
    }
  }
  if (covers.CoveredVertices() > 0) {
    quality.replication_factor = covers.ReplicationFactor();
  }
  if (quality.num_hyperedges > 0) {
    const uint64_t max_size = *std::max_element(
        quality.partition_sizes.begin(), quality.partition_sizes.end());
    quality.measured_alpha =
        static_cast<double>(max_size) * num_partitions /
        static_cast<double>(quality.num_hyperedges);
  }
  return quality;
}

StatusOr<std::vector<PartitionId>> HashPartitionHypergraph(
    const Hypergraph& hypergraph, const HypergraphPartitionConfig& config) {
  if (config.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  std::vector<PartitionId> assignment(hypergraph.edges.size());
  for (size_t i = 0; i < hypergraph.edges.size(); ++i) {
    const VertexId pivot =
        hypergraph.edges[i].pins.empty() ? 0 : hypergraph.edges[i].pins[0];
    assignment[i] = static_cast<PartitionId>(
        Mix64(HashCombine(config.seed, pivot)) % config.num_partitions);
  }
  return assignment;
}

StatusOr<std::vector<PartitionId>> MinMaxPartitionHypergraph(
    const Hypergraph& hypergraph, const HypergraphPartitionConfig& config) {
  if (config.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  const uint32_t k = config.num_partitions;

  ScoreTables tables(hypergraph.NumVertices(), k,
                     config.PartitionCapacity(hypergraph.edges.size()));
  std::vector<PartitionId> assignment(hypergraph.edges.size());
  std::vector<uint32_t> overlap(k);

  for (size_t i = 0; i < hypergraph.edges.size(); ++i) {
    const Hyperedge& edge = hypergraph.edges[i];
    std::fill(overlap.begin(), overlap.end(), 0);
    for (const VertexId pin : edge.pins) {
      for (PartitionId p = 0; p < k; ++p) {
        overlap[p] += tables.replicas().Test(pin, p) ? 1 : 0;
      }
    }
    PartitionId best = kInvalidPartition;
    for (PartitionId p = 0; p < k; ++p) {
      if (tables.IsFull(p)) {
        continue;
      }
      if (best == kInvalidPartition || overlap[p] > overlap[best] ||
          (overlap[p] == overlap[best] && tables.load(p) < tables.load(best))) {
        best = p;
      }
    }
    assignment[i] = best;
    tables.AddLoad(best);
    for (const VertexId pin : edge.pins) {
      tables.replicas().Set(pin, best);
    }
  }
  return assignment;
}

StatusOr<std::vector<PartitionId>> TwoPhasePartitionHypergraph(
    const Hypergraph& hypergraph, const HypergraphPartitionConfig& config,
    const TwoPhaseHypergraphOptions& options) {
  if (config.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  const uint32_t k = config.num_partitions;

  // --- Phase 1: plain-graph streaming clustering on the star
  // expansion (reuses paper Algorithm 1 verbatim). ---
  StarExpansionStream star(&hypergraph);
  DegreeTable degrees;
  TPSL_ASSIGN_OR_RETURN(degrees, ComputeDegrees(star));
  ClusteringConfig clustering_config;
  clustering_config.num_passes = options.clustering_passes;
  clustering_config.volume_cap_factor = options.volume_cap_factor;
  Clustering clustering;
  TPSL_ASSIGN_OR_RETURN(
      clustering, StreamingClustering(star, degrees, k, clustering_config));
  const ClusterSchedule schedule =
      ScheduleClustersGraham(clustering.cluster_volumes, k);

  ScoreTables tables(degrees.num_vertices(), k,
                     config.PartitionCapacity(hypergraph.edges.size()));
  std::vector<PartitionId> assignment(hypergraph.edges.size(),
                                      kInvalidPartition);

  const auto partition_of_pin = [&](VertexId pin) {
    const ClusterId c = clustering.vertex_cluster[pin];
    return c == kInvalidCluster ? kInvalidPartition
                                : schedule.cluster_partition[c];
  };

  const auto commit = [&](size_t index, PartitionId target) {
    assignment[index] = target;
    tables.AddLoad(target);
    for (const VertexId pin : hypergraph.edges[index].pins) {
      tables.replicas().Set(pin, target);
    }
  };

  // --- Phase 2a: pre-partition hyperedges whose pins' clusters map to
  // a single partition. ---
  std::vector<size_t> remaining;
  for (size_t i = 0; i < hypergraph.edges.size(); ++i) {
    const Hyperedge& edge = hypergraph.edges[i];
    PartitionId common = partition_of_pin(edge.pins[0]);
    bool unanimous = true;
    for (const VertexId pin : edge.pins) {
      if (partition_of_pin(pin) != common) {
        unanimous = false;
        break;
      }
    }
    if (!unanimous) {
      remaining.push_back(i);
      continue;
    }
    PartitionId target = common;
    if (tables.IsFull(target)) {
      target = tables.LeastLoadedOpen();
    }
    commit(i, target);
  }

  // --- Phase 2b: score each remaining hyperedge only on the distinct
  // partitions of its pins' clusters (<= |pins| candidates). ---
  std::vector<PartitionId> candidates;
  for (const size_t i : remaining) {
    const Hyperedge& edge = hypergraph.edges[i];
    candidates.clear();
    uint64_t volume_sum = 0;
    uint64_t degree_sum = 0;
    for (const VertexId pin : edge.pins) {
      const PartitionId p = partition_of_pin(pin);
      if (std::find(candidates.begin(), candidates.end(), p) ==
          candidates.end()) {
        candidates.push_back(p);
      }
      degree_sum += degrees.degree(pin);
      volume_sum +=
          clustering.cluster_volumes[clustering.vertex_cluster[pin]];
    }

    PartitionId target = kInvalidPartition;
    double best_score = -1.0;
    for (const PartitionId p : candidates) {
      double score = 0.0;
      for (const VertexId pin : edge.pins) {
        if (tables.replicas().Test(pin, p)) {
          score += 1.0 + (1.0 - static_cast<double>(degrees.degree(pin)) /
                                    static_cast<double>(degree_sum));
        }
        if (partition_of_pin(pin) == p && volume_sum > 0) {
          score += static_cast<double>(
                       clustering.cluster_volumes
                           [clustering.vertex_cluster[pin]]) /
                   static_cast<double>(volume_sum);
        }
      }
      if (score > best_score) {
        best_score = score;
        target = p;
      }
    }
    if (target == kInvalidPartition || tables.IsFull(target)) {
      target = tables.LeastLoadedOpen();
    }
    commit(i, target);
  }
  return assignment;
}

}  // namespace tpsl
