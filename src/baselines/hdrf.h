#ifndef TPSL_BASELINES_HDRF_H_
#define TPSL_BASELINES_HDRF_H_

#include <string>

#include "partition/partitioner.h"

namespace tpsl {

/// HDRF — High-Degree Replicated First (Petroni et al., CIKM'15), the
/// paper's primary stateful streaming baseline. Single pass; for every
/// edge, a degree-weighted replication score plus a balance score is
/// evaluated on all k partitions (the O(|E|·k) cost that 2PS-L
/// eliminates). Degrees are *partial* degrees observed so far in the
/// stream, exactly as in the original algorithm.
class HdrfPartitioner : public Partitioner {
 public:
  std::string name() const override { return "HDRF"; }

  Status Partition(EdgeStream& stream, const PartitionConfig& config,
                   AssignmentSink& sink, PartitionStats* stats) override;
};

}  // namespace tpsl

#endif  // TPSL_BASELINES_HDRF_H_
