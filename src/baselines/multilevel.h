#ifndef TPSL_BASELINES_MULTILEVEL_H_
#define TPSL_BASELINES_MULTILEVEL_H_

#include <string>

#include "partition/partitioner.h"

namespace tpsl {

/// Multilevel in-memory partitioner — the repository's METIS stand-in
/// (METIS itself is not a dependency). Classic three-stage pipeline
/// (Karypis & Kumar):
///   1. Coarsening by heavy-edge matching until the graph is small.
///   2. Greedy balanced initial partitioning of the coarsest graph.
///   3. Uncoarsening with boundary gain refinement at every level.
/// The vertex partition is converted to an edge partition by assigning
/// each edge to an endpoint's part (capacity permitting). Reproduces
/// METIS's qualitative profile in the paper's evaluation: strong
/// replication factors, but in-memory footprint and a run-time far
/// above streaming partitioners.
class MultilevelPartitioner : public Partitioner {
 public:
  std::string name() const override { return "METIS*"; }

  Status Partition(EdgeStream& stream, const PartitionConfig& config,
                   AssignmentSink& sink, PartitionStats* stats) override;
};

}  // namespace tpsl

#endif  // TPSL_BASELINES_MULTILEVEL_H_
