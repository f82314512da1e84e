#include "partition/replication_table.h"

namespace tpsl {

ReplicationTable::ReplicationTable(VertexId num_vertices,
                                   uint32_t num_partitions)
    : num_vertices_(num_vertices),
      num_partitions_(num_partitions),
      bits_(static_cast<uint64_t>(num_vertices) * num_partitions) {}

double ReplicationTable::ReplicationFactor() const {
  const uint64_t covered = CoveredVertices();
  if (covered == 0) {
    return 0.0;
  }
  return static_cast<double>(TotalReplicas()) / static_cast<double>(covered);
}

}  // namespace tpsl
