#include "baselines/hdrf.h"

#include <vector>

#include "graph/degrees.h"
#include "partition/score_tables.h"
#include "util/timer.h"

namespace tpsl {

Status HdrfPartitioner::Partition(EdgeStream& stream,
                                  const PartitionConfig& config,
                                  AssignmentSink& sink,
                                  PartitionStats* stats) {
  if (config.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  PartitionStats local;
  PartitionStats& out = stats != nullptr ? *stats : local;

  // HDRF proper is single-pass with partial degrees; we only need a
  // cheap upfront pass to size the state arrays and learn |E| for the
  // hard capacity bound (the paper's framework streams a binary file
  // whose |E| is known from the file size).
  DegreeTable degrees;
  {
    PhaseTimer timer(&out, "degree");
    TPSL_ASSIGN_OR_RETURN(degrees, ComputeDegrees(stream, config.exec));
  }
  out.stream_passes += 1;

  PhaseTimer timer(&out, "partitioning");
  const VertexId num_vertices = degrees.num_vertices();

  ScoreTables tables(num_vertices, config.num_partitions,
                     config.PartitionCapacity(degrees.num_edges));
  std::vector<uint32_t> partial_degree(num_vertices, 0);
  const LentReplicas lent(sink, tables.replicas());
  out.state_bytes =
      tables.HeapBytes() + partial_degree.size() * sizeof(uint32_t);

  TPSL_RETURN_IF_ERROR(ForEachEdgePrefetched(
      stream,
      [&] [[gnu::always_inline]] (const Edge& e) { tables.PrefetchEdge(e); },
      [&](const Edge& e) {
        ++partial_degree[e.first];
        ++partial_degree[e.second];
        const PartitionId target =
            tables
                .PickHdrf(e, partial_degree[e.first], partial_degree[e.second])
                .partition;
        tables.Commit(e, target);
        sink.Assign(e, target);
        return true;
      }));
  out.stream_passes += 1;
  return Status::OK();
}

}  // namespace tpsl
