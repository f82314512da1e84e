#ifndef TPSL_DYNAMIC_INCREMENTAL_PARTITIONER_H_
#define TPSL_DYNAMIC_INCREMENTAL_PARTITIONER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/two_phase_state.h"
#include "graph/edge_stream.h"
#include "partition/partitioner.h"
#include "partition/replica_matrix.h"
#include "util/status.h"

namespace tpsl {

/// Incremental 2PS-L for dynamic graphs — the extension the paper
/// sketches in its related work ("following the approach proposed by
/// Fan et al., 2PS-L could be transformed into an incremental algorithm
/// to efficiently handle dynamic graphs ... without recomputing the
/// complete partitioning from scratch").
///
/// A thin layer over the batch engine's state: Bootstrap() builds the
/// Phase-1 plan (BuildTwoPhasePlan on config.exec) and places the base
/// graph in one pass, in stream order, through the same
/// Phase2State::PreferLinear + Place step 2PS-L's passes use. It keeps
/// that Phase2State: the plan (degrees, clustering, schedule), the replica
/// matrix and the loads. AddEdge() then places arriving edges in O(1):
///  * unseen vertices join the cluster of their first neighbor,
///  * the edge is scored on the two candidate partitions with the
///    2PS-L scoring function against the live replication state,
///  * the hard cap grows with |E|: capacity = ⌊α·|E_now|/k⌋ + 1, one
///    above PartitionConfig::PartitionCapacity when α·|E_now|/k is an
///    integer.
/// RemoveEdge() releases the load slot; replication state is shrunk
/// lazily (a removal never invalidates previous placements, it only
/// loosens future capacity — the standard conservative treatment).
///
/// Quality degrades gracefully as the graph drifts from the bootstrap
/// snapshot; StalenessRatio() tells callers when a re-bootstrap pays
/// off.
class IncrementalPartitioner {
 public:
  explicit IncrementalPartitioner(const PartitionConfig& config)
      : config_(config) {}

  /// Partitions the base graph with 2PS-L, reporting assignments to
  /// `sink` in stream order, and retains the state for incremental
  /// updates.
  Status Bootstrap(EdgeStream& base_graph, AssignmentSink& sink);

  /// Places one new edge; returns its partition. Must be called after
  /// Bootstrap().
  StatusOr<PartitionId> AddEdge(const Edge& edge);

  /// Records the removal of an edge previously placed on `partition`.
  Status RemoveEdge(const Edge& edge, PartitionId partition);

  /// Current number of live edges (base + added - removed).
  uint64_t num_edges() const { return num_edges_; }

  /// Drift since Bootstrap() as a fraction of the live edge count.
  /// Both additions and removals count as drift: a removal leaves the
  /// clustering, schedule, and (lazily shrunk) replication bits stale
  /// just like an addition does, so heavy churn with a near-constant
  /// edge count still pushes this toward (and past) 1.0. Callers
  /// typically re-bootstrap above ~0.5.
  double StalenessRatio() const {
    const uint64_t drift = added_since_bootstrap_ + removed_since_bootstrap_;
    if (num_edges_ == 0) {
      return drift == 0 ? 0.0 : 1.0;
    }
    return static_cast<double>(drift) / static_cast<double>(num_edges_);
  }

  /// Live replication factor from the maintained matrix.
  double CurrentReplicationFactor() const {
    return state_ == nullptr ? 0.0 : state_->replicas.ReplicationFactor();
  }

  /// Edges per partition; empty before Bootstrap().
  std::vector<uint64_t> loads() const;

  const PartitionConfig& config() const { return config_; }

  /// Maintained replica matrix; null before Bootstrap(). Rows are an
  /// upper bound after removals (bits are shrunk lazily).
  const ReplicaMatrix* replicas() const {
    return state_ == nullptr ? nullptr : &state_->replicas;
  }

  /// Heap footprint of the retained plan and Phase-2 state.
  uint64_t StateBytes() const {
    return state_ == nullptr ? 0 : state_->HeapBytes();
  }

 private:
  /// Ensures the plan's vertex arrays and the replica matrix cover `v`,
  /// growing them for vertices first seen after Bootstrap().
  void EnsureVertex(VertexId v);

  /// Places `e` through the shared 2PS-L step under the cap for the
  /// current edge count.
  PartitionId PlaceEdge(const Edge& e);

  uint64_t Capacity() const {
    const double cap = config_.balance_factor *
                       static_cast<double>(num_edges_) /
                       config_.num_partitions;
    const uint64_t capacity = static_cast<uint64_t>(cap) + 1;
    const uint64_t floor_cap =
        (num_edges_ + config_.num_partitions - 1) / config_.num_partitions;
    return capacity < floor_cap ? floor_cap : capacity;
  }

  PartitionConfig config_;

  uint64_t num_edges_ = 0;
  uint64_t added_since_bootstrap_ = 0;
  uint64_t removed_since_bootstrap_ = 0;

  std::unique_ptr<Phase2State> state_;  // null before Bootstrap()
};

}  // namespace tpsl

#endif  // TPSL_DYNAMIC_INCREMENTAL_PARTITIONER_H_
