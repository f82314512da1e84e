#ifndef TPSL_BASELINES_DNE_H_
#define TPSL_BASELINES_DNE_H_

#include <string>

#include "partition/partitioner.h"

namespace tpsl {

/// DNE — Distributed Neighborhood Expansion (Hanai et al., VLDB'19),
/// reproduced as a shared-memory parallel partitioner in place of the
/// original's MPI cluster: all k partitions expand concurrently,
/// claiming edges through
/// atomic compare-and-swap on a per-edge owner array. Quality is
/// slightly below sequential NE (concurrent expansions collide at
/// cluster borders), run-time is much lower, memory is O(|E|) — the
/// qualitative position DNE occupies in the paper's Fig. 4.
///
/// Workers: PartitionConfig::exec.threads (0 = one per hardware thread)
/// capped at k, run on the run's exec pool.
class DnePartitioner : public Partitioner {
 public:
  std::string name() const override { return "DNE"; }

  Status Partition(EdgeStream& stream, const PartitionConfig& config,
                   AssignmentSink& sink, PartitionStats* stats) override;
};

}  // namespace tpsl

#endif  // TPSL_BASELINES_DNE_H_
