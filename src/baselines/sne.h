#ifndef TPSL_BASELINES_SNE_H_
#define TPSL_BASELINES_SNE_H_

#include <string>

#include "partition/partitioner.h"

namespace tpsl {

/// SNE — the streaming variant of NE used as a baseline in the paper.
/// The edge stream is consumed in bounded chunks (the paper configures
/// a cache of 2·|V| edges); neighborhood expansion runs inside each
/// chunk, distributing its edges over the globally least-loaded
/// partitions. Quality sits between HDRF and NE; run-time and memory
/// are significantly higher than pure streaming (matching the paper's
/// SNE observations, including its failures on big graphs at small
/// cache sizes).
class SnePartitioner : public Partitioner {
 public:
  std::string name() const override { return "SNE"; }

  Status Partition(EdgeStream& stream, const PartitionConfig& config,
                   AssignmentSink& sink, PartitionStats* stats) override;
};

}  // namespace tpsl

#endif  // TPSL_BASELINES_SNE_H_
