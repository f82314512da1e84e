#ifndef TPSL_PARTITION_REPLICATION_TABLE_H_
#define TPSL_PARTITION_REPLICATION_TABLE_H_

#include <cstdint>

#include "graph/types.h"
#include "partition/dense_bitset.h"

namespace tpsl {

/// Vertex-to-partition replication bit matrix — the `v2p` state of
/// paper Algorithm 2, and the dominant O(|V|·k) space term of every
/// stateful streaming partitioner (Table II).
///
/// Hosted on the kernel's DenseBitset, vertex-major: row v is the k
/// consecutive bits starting at v·k, so one cache line holds a whole
/// row for k <= 512 and a scoring loop touches exactly one line per
/// endpoint. Holds the bits only: replica and cover totals are counted
/// by sweeping the matrix (DenseBitset::Count, CountNonEmptyRows) when
/// asked, as the runner's quality sink does.
class ReplicationTable {
 public:
  ReplicationTable(VertexId num_vertices, uint32_t num_partitions);

  VertexId num_vertices() const { return num_vertices_; }
  uint32_t num_partitions() const { return num_partitions_; }

  /// Whether vertex v is replicated on partition p.
  bool Test(VertexId v, PartitionId p) const { return bits_.Test(Index(v, p)); }

  /// Extends the table to cover vertices up to `new_num_vertices - 1`
  /// (no-op if already large enough). Rows are vertex-major, so growth
  /// is a cheap append; used by the incremental partitioner when a
  /// dynamic graph introduces unseen vertices.
  void GrowVertices(VertexId new_num_vertices) {
    if (new_num_vertices <= num_vertices_) {
      return;
    }
    num_vertices_ = new_num_vertices;
    bits_.Resize(static_cast<uint64_t>(num_vertices_) * num_partitions_);
  }

  /// Marks v as replicated on p (idempotent).
  void Set(VertexId v, PartitionId p) { bits_.Set(Index(v, p)); }

  /// Pulls vertex v's replica row toward the cache; scoring loops call
  /// this a few edges ahead of the test.
  void PrefetchRow(VertexId v) const {
    bits_.Prefetch(Index(v, 0));
  }

  /// Replication factor over the vertices that actually appear in the
  /// graph: (1/|V|) Σ_i |V(p_i)|, computed against the number of
  /// vertices with at least one replica.
  double ReplicationFactor() const;

  /// Total vertices with >= 1 replica (i.e., non-isolated vertices):
  /// the matrix's non-empty rows, an O(|V|·k / 64) sweep.
  uint64_t CoveredVertices() const {
    return bits_.CountNonEmptyRows(num_partitions_);
  }

  /// Σ_v replicas(v): the matrix popcount, an O(|V|·k / 64) sweep.
  uint64_t TotalReplicas() const { return bits_.Count(); }

  /// Bytes of heap memory held (for the paper's memory accounting):
  /// the bit matrix, the Table II space term.
  uint64_t HeapBytes() const { return bits_.HeapBytes(); }

 private:
  uint64_t Index(VertexId v, PartitionId p) const {
    return static_cast<uint64_t>(v) * num_partitions_ + p;
  }

  VertexId num_vertices_;
  uint32_t num_partitions_;
  DenseBitset bits_;
};

}  // namespace tpsl

#endif  // TPSL_PARTITION_REPLICATION_TABLE_H_
