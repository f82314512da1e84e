#include "baselines/greedy.h"

#include "graph/degrees.h"
#include "partition/score_tables.h"
#include "util/timer.h"

namespace tpsl {

Status GreedyPartitioner::Partition(EdgeStream& stream,
                                    const PartitionConfig& config,
                                    AssignmentSink& sink,
                                    PartitionStats* stats) {
  if (config.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  PartitionStats local;
  PartitionStats& out = stats != nullptr ? *stats : local;

  // Size the replication table with a degree pass (also yields |E| for
  // the capacity bound).
  DegreeTable degrees;
  {
    PhaseTimer timer(&out, "degree");
    TPSL_ASSIGN_OR_RETURN(degrees, ComputeDegrees(stream, config.exec));
  }
  out.stream_passes += 1;

  PhaseTimer timer(&out, "partitioning");
  ScoreTables tables(degrees.num_vertices(), config.num_partitions,
                     config.PartitionCapacity(degrees.num_edges));
  const LentReplicas lent(sink, tables.replicas());
  out.state_bytes =
      tables.HeapBytes() + degrees.degrees.size() * sizeof(uint32_t);

  TPSL_RETURN_IF_ERROR(ForEachEdgePrefetched(
      stream,
      [&] [[gnu::always_inline]] (const Edge& e) { tables.PrefetchEdge(e); },
      [&](const Edge& e) {
        const PartitionId target = tables.PickGreedy(e);
        tables.Commit(e, target);
        sink.Assign(e, target);
        return true;
      }));
  out.stream_passes += 1;
  return Status::OK();
}

}  // namespace tpsl
