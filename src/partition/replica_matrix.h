#ifndef TPSL_PARTITION_REPLICA_MATRIX_H_
#define TPSL_PARTITION_REPLICA_MATRIX_H_

#include <cstdint>

#include "graph/types.h"
#include "partition/dense_bitset.h"

namespace tpsl {

/// Vertex-to-partition replica matrix: the `v2p` state of paper
/// Algorithm 2 and the dominant O(|V|·k) space term of every stateful
/// streaming partitioner (Table II). It is the only type that knows the
/// layout: vertex-major on a DenseBitset, row v is the k consecutive
/// bits starting at v·k, so a scoring loop touches one row per endpoint
/// (one cache line for k <= 512).
///
/// One per run: a partitioner that keeps one lends it to its sink
/// (AssignmentSink::LendReplicas) rather than have the quality sink
/// build a second. Replica and cover totals are counted by sweeping
/// the matrix when asked.
///
/// A single owner reads and writes plain words. A `shared` matrix (one
/// parallel 2PS run's workers) is Set by a relaxed check-then-set; its
/// readers Test and count it with relaxed loads and see a subset of the
/// concurrent sets.
class ReplicaMatrix {
 public:
  using Access = DenseBitset::Access;

  ReplicaMatrix(VertexId num_vertices, uint32_t num_partitions,
                bool shared = false)
      : num_vertices_(num_vertices),
        num_partitions_(num_partitions),
        shared_(shared),
        bits_(static_cast<uint64_t>(num_vertices) * num_partitions) {}

  VertexId num_vertices() const { return num_vertices_; }
  uint32_t num_partitions() const { return num_partitions_; }

  /// Whether vertex v has a replica on partition p.
  template <Access kAccess = Access::kPlain>
  bool Test(VertexId v, PartitionId p) const {
    return bits_.Test<kAccess>(Index(v, p));
  }

  /// Marks v as replicated on p (idempotent).
  void Set(VertexId v, PartitionId p) {
    if (shared_) {
      bits_.Set<Access::kRelaxed>(Index(v, p));
    } else {
      bits_.Set(Index(v, p));
    }
  }

  /// Extends the matrix to rows 0..new_num_vertices-1 (a no-op if it is
  /// already that large). Rows are vertex-major, so growth appends
  /// zeroed rows: a sink or dynamic graph meeting unseen vertices.
  void GrowVertices(VertexId new_num_vertices) {
    if (new_num_vertices <= num_vertices_) {
      return;
    }
    num_vertices_ = new_num_vertices;
    bits_.Resize(static_cast<uint64_t>(num_vertices_) * num_partitions_);
  }

  /// Pulls vertex v's row toward the cache; scoring loops call this a
  /// few edges ahead of the test. Always inlined (see util/prefetch.h).
  [[gnu::always_inline]] void PrefetchRow(VertexId v) const {
    bits_.Prefetch(Index(v, 0));
  }

  /// Σ_v replicas(v): the matrix popcount, an O(|V|·k / 64) sweep.
  template <Access kAccess = Access::kPlain>
  uint64_t TotalReplicas() const {
    return bits_.Count<kAccess>();
  }

  /// Vertices with at least one replica (the non-isolated vertices):
  /// the non-empty rows, an O(|V|·k / 64) sweep.
  template <Access kAccess = Access::kPlain>
  uint64_t CoveredVertices() const {
    return bits_.CountNonEmptyRows<kAccess>(num_partitions_);
  }

  /// Replicas per covered vertex; 0 for an empty matrix.
  double ReplicationFactor() const {
    const uint64_t covered = CoveredVertices();
    return covered == 0 ? 0.0
                        : static_cast<double>(TotalReplicas()) /
                              static_cast<double>(covered);
  }

  /// Heap bytes of the bit matrix: the Table II space term.
  uint64_t HeapBytes() const { return bits_.HeapBytes(); }

 private:
  uint64_t Index(VertexId v, PartitionId p) const {
    return static_cast<uint64_t>(v) * num_partitions_ + p;
  }

  VertexId num_vertices_;
  uint32_t num_partitions_;
  bool shared_;
  DenseBitset bits_;
};

}  // namespace tpsl

#endif  // TPSL_PARTITION_REPLICA_MATRIX_H_
