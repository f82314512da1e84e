#ifndef TPSL_SERVE_SERVING_TABLE_H_
#define TPSL_SERVE_SERVING_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "dynamic/incremental_partitioner.h"
#include "graph/types.h"
#include "partition/replica_matrix.h"

namespace tpsl {
namespace serve {

/// The vertex space is split into fixed chunks so an epoch publish can
/// clone only the chunks a mutation batch dirtied and share the rest
/// with the previous snapshot (copy-on-write). 4096 rows keeps a k<=64
/// chunk at 32 KiB — cheap to clone, coarse enough that a 256-edge
/// batch rarely touches more than a handful.
inline constexpr uint32_t kServingChunkShift = 12;
inline constexpr uint32_t kServingChunkVertices = 1u << kServingChunkShift;

/// One chunk of vertex->partition-set rows: kServingChunkVertices rows
/// of words_per_row 64-bit words each, row-major. Immutable once its
/// owning ServingTable is published.
struct ServingChunk {
  explicit ServingChunk(uint32_t words_per_row)
      : words(static_cast<size_t>(kServingChunkVertices) * words_per_row, 0) {}
  std::vector<uint64_t> words;
};

struct VertexLookup {
  bool found = false;           // vertex has at least one replica
  uint32_t replica_count = 0;   // popcount of the partition set
  PartitionId primary = kInvalidPartition;  // lowest-id replica partition
};

/// Immutable, flat, read-optimized snapshot of "which partitions hold
/// vertex v" plus an edge-routing rule over it. Built by the
/// PartitionService writer from IncrementalPartitioner state and
/// published behind an atomic epoch pointer; readers touch nothing but
/// plain loads over const data, so lookups are wait-free.
class ServingTable {
 public:
  uint64_t epoch() const { return epoch_; }
  VertexId num_vertices() const { return num_vertices_; }
  uint32_t num_partitions() const { return k_; }
  uint64_t live_edges() const { return live_edges_; }
  const std::vector<uint64_t>& loads() const { return loads_; }

  VertexLookup LookupVertex(VertexId v) const;

  bool TestReplica(VertexId v, PartitionId p) const;

  /// Routes an edge to the partition that should serve it:
  ///  * both endpoints known with a common replica partition -> the
  ///    lowest-id common partition (the edge is local there),
  ///  * both known but disjoint -> the primary of the endpoint with
  ///    fewer replicas (cheaper side to extend; ties break on the
  ///    lower vertex id),
  ///  * one known -> that endpoint's primary,
  ///  * neither known -> seeded hash of the (min,max) vertex pair.
  /// Deterministic for a given snapshot; OracleRouteEdge() implements
  /// the identical rule over live ReplicaMatrix state.
  PartitionId RouteEdge(const Edge& e) const;

  /// Logical heap size of this snapshot (chunks counted in full even
  /// when shared with other epochs, i.e. the cost of holding this
  /// table alone).
  uint64_t HeapBytes() const;

 private:
  ServingTable(uint64_t epoch, VertexId num_vertices, uint32_t num_partitions,
               uint64_t seed);

  const uint64_t* Row(VertexId v) const {
    return chunks_[v >> kServingChunkShift]->words.data() +
           static_cast<size_t>(v & (kServingChunkVertices - 1)) *
               words_per_row_;
  }

  friend std::shared_ptr<const ServingTable> BuildServingTable(
      const IncrementalPartitioner& state, uint64_t epoch);
  friend std::shared_ptr<const ServingTable> PatchServingTable(
      const std::shared_ptr<const ServingTable>& prev,
      const IncrementalPartitioner& state,
      const std::vector<VertexId>& dirty_vertices, uint64_t epoch);

  uint64_t epoch_ = 0;
  VertexId num_vertices_ = 0;
  uint32_t k_ = 0;
  uint32_t words_per_row_ = 0;
  uint64_t seed_ = 0;
  uint64_t live_edges_ = 0;
  std::vector<uint64_t> loads_;
  std::vector<std::shared_ptr<const ServingChunk>> chunks_;
};

/// Full rebuild of a snapshot from partitioner state (bootstrap and
/// re-bootstrap adoption). O(|V| * k / 64).
std::shared_ptr<const ServingTable> BuildServingTable(
    const IncrementalPartitioner& state, uint64_t epoch);

/// Delta-patch: clones only the chunks containing `dirty_vertices`
/// (must be sorted and deduplicated), rewrites those rows from `state`,
/// and shares every clean chunk with `prev`. Always refreshes loads and
/// the live edge count. O(dirty chunks * chunk size).
std::shared_ptr<const ServingTable> PatchServingTable(
    const std::shared_ptr<const ServingTable>& prev,
    const IncrementalPartitioner& state,
    const std::vector<VertexId>& dirty_vertices, uint64_t epoch);

/// Reference implementations of the lookup/routing rules over live
/// ReplicaMatrix state — the oracle the property tests compare
/// ServingTable snapshots against.
VertexLookup OracleLookupVertex(const ReplicaMatrix& replicas, VertexId v);
PartitionId OracleRouteEdge(const ReplicaMatrix& replicas, const Edge& e,
                            uint64_t seed);

}  // namespace serve
}  // namespace tpsl

#endif  // TPSL_SERVE_SERVING_TABLE_H_
