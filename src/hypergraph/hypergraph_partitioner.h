#ifndef TPSL_HYPERGRAPH_HYPERGRAPH_PARTITIONER_H_
#define TPSL_HYPERGRAPH_HYPERGRAPH_PARTITIONER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "partition/partitioner.h"
#include "util/status.h"

namespace tpsl {

/// Hyperedge partitioning: split the hyperedge set into k parts of at
/// most alpha * |E| / k hyperedges, minimizing pin replication
/// RF = (1/|V|) Σ_i |V(p_i)| — the natural generalization of the
/// paper's problem statement (a graph edge is a 2-pin hyperedge).
struct HypergraphPartitionConfig {
  uint32_t num_partitions = 32;
  double balance_factor = 1.05;
  uint64_t seed = 42;

  uint64_t PartitionCapacity(uint64_t num_hyperedges) const {
    return BalancedCapacity(num_hyperedges, num_partitions, balance_factor);
  }
};

struct HypergraphQuality {
  double replication_factor = 0.0;
  double measured_alpha = 0.0;
  uint64_t num_hyperedges = 0;
  std::vector<uint64_t> partition_sizes;
};

/// Quality recomputed from scratch from the assignment vector
/// (assignment[i] = partition of hypergraph.edges[i]).
HypergraphQuality ComputeHypergraphQuality(
    const Hypergraph& hypergraph, const std::vector<PartitionId>& assignment,
    uint32_t num_partitions);

/// Stateless baseline: hyperedge hashed on its first pin.
StatusOr<std::vector<PartitionId>> HashPartitionHypergraph(
    const Hypergraph& hypergraph, const HypergraphPartitionConfig& config);

/// Stateful streaming baseline in the spirit of streaming min-max
/// hypergraph partitioning (Alistarh et al., NIPS'15): each hyperedge
/// goes to the non-full partition already holding the most of its
/// pins (ties: least loaded). O(|pins| * k) per hyperedge.
StatusOr<std::vector<PartitionId>> MinMaxPartitionHypergraph(
    const Hypergraph& hypergraph, const HypergraphPartitionConfig& config);

/// 2PS-H: the two-phase linear-time scheme lifted to hypergraphs.
/// Phase 1 runs the paper's streaming clustering on the star expansion;
/// Phase 2 maps clusters to partitions (Graham), pre-partitions
/// hyperedges whose pins' clusters are co-located, and scores the rest
/// only on the candidate partitions of the pins' clusters — at most
/// |pins| candidates instead of k, preserving the run-time independence
/// from k that defines 2PS-L.
struct TwoPhaseHypergraphOptions {
  uint32_t clustering_passes = 1;
  double volume_cap_factor = 0.25;
};

StatusOr<std::vector<PartitionId>> TwoPhasePartitionHypergraph(
    const Hypergraph& hypergraph, const HypergraphPartitionConfig& config,
    const TwoPhaseHypergraphOptions& options = {});

}  // namespace tpsl

#endif  // TPSL_HYPERGRAPH_HYPERGRAPH_PARTITIONER_H_
