#ifndef TPSL_BASELINES_NE_H_
#define TPSL_BASELINES_NE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "graph/types.h"
#include "partition/dense_bitset.h"
#include "partition/partitioner.h"

namespace tpsl {

namespace expansion {

/// Edge-indexed adjacency: like CSR, but every adjacency entry carries
/// the id of the underlying edge so that expansion can claim edges
/// exactly once. Each undirected edge appears in both endpoint lists.
struct IndexedAdjacency {
  std::vector<uint64_t> offsets;    // |V| + 1
  std::vector<VertexId> neighbors;  // 2|E|
  std::vector<uint64_t> edge_ids;   // 2|E|, parallel to neighbors

  /// Builds the adjacency with a stable counting sort whose count and
  /// fill passes split the edge ids into one contiguous chunk per
  /// thread: per-chunk counts are prefix-summed into per-chunk write
  /// cursors, so every entry lands at the same index for any chunk
  /// count and the result is byte-identical at any thread count. It is
  /// the parallel stage of NE/SNE/HEP, whose expansion cores stay
  /// sequential (greedy, state-carrying). With one thread (the default
  /// context) the single chunk runs on the caller; partitioners forward
  /// their PartitionConfig::exec to fan out on its pool.
  static IndexedAdjacency Build(const std::vector<Edge>& edges,
                                VertexId num_vertices,
                                const exec::ExecContext& exec = {});

  VertexId num_vertices() const {
    return static_cast<VertexId>(offsets.size() - 1);
  }
  uint32_t degree(VertexId v) const {
    return static_cast<uint32_t>(offsets[v + 1] - offsets[v]);
  }
  uint64_t HeapBytes() const {
    return offsets.size() * sizeof(uint64_t) +
           neighbors.size() * sizeof(VertexId) +
           edge_ids.size() * sizeof(uint64_t);
  }
};

/// Sequential neighborhood-expansion engine over an IndexedAdjacency.
/// Grows one partition at a time from low-degree seeds, repeatedly
/// absorbing the boundary vertex with the fewest unclaimed incident
/// edges (the min-external-degree heuristic of NE, Zhang et al.
/// KDD'17), simplified: a boundary vertex's score is its unclaimed
/// degree, kept in a lazily validated min-heap, and an exhausted
/// boundary restarts from the lowest-degree vertex with unclaimed
/// edges.
class Expander {
 public:
  Expander(const std::vector<Edge>* edges, const IndexedAdjacency* adjacency);

  /// Claims up to `budget` so-far-unclaimed edges for `partition`,
  /// invoking `sink` for each. Returns the number claimed. Subsequent
  /// calls continue from the global claimed state.
  uint64_t Expand(PartitionId partition, uint64_t budget,
                  AssignmentSink& sink);

  /// Edges not claimed by any Expand() call so far.
  uint64_t UnclaimedEdges() const { return num_edges_ - claimed_total_; }

  uint64_t HeapBytes() const;

 private:
  /// Claims all unclaimed edges of `v`, stopping at the budget.
  uint64_t ClaimVertexEdges(VertexId v, PartitionId partition,
                            uint64_t budget, AssignmentSink& sink,
                            std::vector<VertexId>* discovered);

  const std::vector<Edge>* edges_;
  const IndexedAdjacency* adjacency_;
  uint64_t num_edges_;
  uint64_t claimed_total_ = 0;
  DenseBitset edge_claimed_;
  std::vector<uint32_t> unclaimed_degree_;
  // Vertices ordered by ascending (static) degree; seed cursor skips
  // exhausted ones.
  std::vector<VertexId> seed_order_;
  size_t seed_cursor_ = 0;
};

}  // namespace expansion

/// NE — Neighborhood Expansion (Zhang et al., KDD'17): the in-memory
/// quality leader of the paper's evaluation. Materializes the full
/// graph (O(|E|) memory, the cost the paper contrasts with 2PS-L's
/// 2.7 GB vs 28 GB example) and grows each partition greedily from
/// low-degree seeds.
class NePartitioner : public Partitioner {
 public:
  std::string name() const override { return "NE"; }

  Status Partition(EdgeStream& stream, const PartitionConfig& config,
                   AssignmentSink& sink, PartitionStats* stats) override;
};

}  // namespace tpsl

#endif  // TPSL_BASELINES_NE_H_
