#include "baselines/dbh.h"

#include "graph/degrees.h"
#include "partition/score_tables.h"
#include "util/prefetch.h"
#include "util/random.h"
#include "util/timer.h"

namespace tpsl {

Status DbhPartitioner::Partition(EdgeStream& stream,
                                 const PartitionConfig& config,
                                 AssignmentSink& sink,
                                 PartitionStats* stats) {
  if (config.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  PartitionStats local;
  PartitionStats& out = stats != nullptr ? *stats : local;

  DegreeTable degrees;
  {
    PhaseTimer timer(&out, "degree");
    TPSL_ASSIGN_OR_RETURN(degrees, ComputeDegrees(stream, config.exec));
  }
  out.stream_passes += 1;
  out.state_bytes = degrees.degrees.size() * sizeof(uint32_t);

  PhaseTimer timer(&out, "partitioning");
  const uint32_t k = config.num_partitions;
  const uint64_t seed = config.seed;
  // DBH carries no partition state — its only random access is the
  // degree table, so the kernel driver prefetches degree entries.
  const uint32_t* degree_data = degrees.degrees.data();
  TPSL_RETURN_IF_ERROR(ForEachEdgePrefetched(
      stream,
      [&] [[gnu::always_inline]] (const Edge& e) {
        PrefetchRead(degree_data + e.first);
        PrefetchRead(degree_data + e.second);
      },
      [&](const Edge& e) {
        // Hash the endpoint with the smaller degree (ties: smaller id).
        const VertexId pivot =
            degrees.degree(e.first) <= degrees.degree(e.second) ? e.first
                                                                : e.second;
        sink.Assign(
            e, static_cast<PartitionId>(Mix64(HashCombine(seed, pivot)) % k));
        return true;
      }));
  out.stream_passes += 1;
  return Status::OK();
}

}  // namespace tpsl
