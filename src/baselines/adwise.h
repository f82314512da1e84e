#ifndef TPSL_BASELINES_ADWISE_H_
#define TPSL_BASELINES_ADWISE_H_

#include <string>

#include "partition/partitioner.h"

namespace tpsl {

/// ADWISE (Mayer et al., ICDCS'18): window-based streaming edge
/// partitioning. A buffer of edges is kept; instead of assigning edges
/// in stream order, the partitioner repeatedly assigns the
/// highest-confidence edge in the window, allowing it to "look into the
/// future" of the stream and detect local clusters within the buffer.
///
/// Re-implementation notes: the original adapts its window size to a
/// run-time bound; we fix the window at 512 edges and assign the top
/// half of the window per scoring round, which
/// keeps the characteristic O(|E|·k·c) cost (c = amortized window
/// overhead) without the original's time-control machinery. As in the
/// paper's evaluation, ADWISE's quality advantage vanishes when the
/// window is small relative to the graph.
class AdwisePartitioner : public Partitioner {
 public:
  std::string name() const override { return "ADWISE"; }

  Status Partition(EdgeStream& stream, const PartitionConfig& config,
                   AssignmentSink& sink, PartitionStats* stats) override;
};

}  // namespace tpsl

#endif  // TPSL_BASELINES_ADWISE_H_
