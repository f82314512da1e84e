#include "core/two_phase_partitioner.h"

#include <mutex>
#include <vector>

#include "core/cluster_schedule.h"
#include "core/two_phase_state.h"
#include "exec/parallel_for_edges.h"
#include "graph/degrees.h"
#include "partition/score_tables.h"
#include "util/timer.h"

namespace tpsl {
namespace {

/// Edges placed by the pre-partitioning pass. The scoring pass counts
/// the edges it places into the shared partition.edges_scored.
obs::Counter* PrepartitionedEdgesCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Default().GetCounter(
      "partition.prepartitioned_edges");
  return counter;
}

/// One engine-driven pass: workers run `process(edge)`, which returns
/// the chosen partition or kInvalidPartition to skip; placed edges are
/// added to `*placed` and, one Add per batch, to `placed_counter`. Each
/// batch's assignments go out in one AssignBatch call under the pass's
/// one mutex, so the sink sees one caller at a time at every thread
/// count.
template <typename ProcessFn>
Status ParallelPass(EdgeStream& stream, const exec::ExecContext& exec,
                    AssignmentSink& sink, const ProcessFn& process,
                    uint64_t* placed, obs::Counter* placed_counter) {
  std::mutex sink_mutex;
  uint64_t total = 0;  // guarded by sink_mutex
  TPSL_RETURN_IF_ERROR(exec::ParallelForEdges(
      stream, exec,
      [&](const Edge* edges, size_t count) -> Status {
        obs::TraceSpan span("score.batch", "partition");
        std::vector<Assignment> results;
        results.reserve(count);
        for (size_t i = 0; i < count; ++i) {
          const PartitionId p = process(edges[i]);
          if (p != kInvalidPartition) {
            results.push_back({edges[i], p});
          }
        }
        if (!results.empty()) {
          std::lock_guard<std::mutex> lock(sink_mutex);
          sink.AssignBatch(results.data(), results.size());
          total += results.size();
        }
        placed_counter->Add(results.size());
        return Status::OK();
      }));
  *placed += total;
  return Status::OK();
}

}  // namespace

std::string TwoPhasePartitioner::name() const {
  return options_.scoring == ScoringMode::kLinear ? "2PS-L" : "2PS-HDRF";
}

Status TwoPhasePartitioner::Partition(EdgeStream& stream,
                                      const PartitionConfig& config,
                                      AssignmentSink& sink,
                                      PartitionStats* stats) {
  if (config.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  if (config.exec.batch_size == 0) {
    return Status::InvalidArgument("exec.batch_size must be positive");
  }
  PartitionStats local_stats;
  PartitionStats& out = stats != nullptr ? *stats : local_stats;

  // --- Degree pass (reported separately, as in paper Fig. 5). ---
  DegreeTable degrees;
  {
    PhaseTimer timer(&out, "degree");
    TPSL_ASSIGN_OR_RETURN(degrees, ComputeDegrees(stream));
  }
  out.stream_passes += 1;

  // --- Phase 1: streaming clustering on the same engine. ---
  Clustering clustering;
  {
    PhaseTimer timer(&out, "clustering");
    TPSL_ASSIGN_OR_RETURN(
        clustering, ParallelStreamingClustering(stream, degrees,
                                                config.num_partitions,
                                                options_.clustering,
                                                config.exec));
  }
  out.stream_passes += options_.clustering.num_passes;

  // --- Phase 2: mapping, pre-partitioning, scoring pass. ---
  PhaseTimer partition_timer(&out, "partitioning");

  const ClusterSchedule schedule =
      options_.scheduling == SchedulingMode::kGraham
          ? ScheduleClustersGraham(clustering.cluster_volumes,
                                   config.num_partitions)
          : ScheduleClustersRoundRobin(clustering.cluster_volumes,
                                       config.num_partitions);

  Phase2State state(degrees, config.num_partitions,
                    config.PartitionCapacity(degrees.num_edges), config.seed,
                    /*shared=*/config.exec.Workers() > 1);

  out.state_bytes = degrees.degrees.size() * sizeof(uint32_t) +
                    clustering.HeapBytes() + schedule.HeapBytes() +
                    state.HeapBytes();

  const LentReplicas lent(sink, state.replicas);

  // Two passes classify every edge the same way. Step 2 places edges
  // whose endpoints' clusters are mapped to the same partition, which
  // includes endpoints sharing a cluster (lines 16-26); step 3 scores
  // the rest (lines 27-44).
  const bool linear = options_.scoring == ScoringMode::kLinear;
  for (const bool prepartition : {true, false}) {
    TPSL_RETURN_IF_ERROR(ParallelPass(
        stream, config.exec, sink,
        [&](const Edge& e) -> PartitionId {
          const ClusterId c1 = clustering.vertex_cluster[e.first];
          const ClusterId c2 = clustering.vertex_cluster[e.second];
          const PartitionId p1 = schedule.cluster_partition[c1];
          const PartitionId p2 = schedule.cluster_partition[c2];
          if ((p1 == p2) != prepartition) {
            return kInvalidPartition;  // The other pass places it.
          }
          if (prepartition) {
            return state.Place(e, p1);
          }
          const uint32_t du = degrees.degree(e.first);
          const uint32_t dv = degrees.degree(e.second);
          if (!linear) {
            return state.Place(
                e, state.PickHdrf(e, du, dv, options_.hdrf_lambda));
          }
          // 2PS-L: score exactly the two candidate partitions.
          const uint64_t vol1 = options_.use_cluster_volume_term
                                    ? clustering.cluster_volumes[c1]
                                    : 0;
          const uint64_t vol2 = options_.use_cluster_volume_term
                                    ? clustering.cluster_volumes[c2]
                                    : 0;
          return state.Place(
              e, PickLinear<ReplicaMatrix::Access::kRelaxed>(
                     state.replicas, e, du, dv, vol1, vol2, p1, p2));
        },
        prepartition ? &out.prepartitioned_edges : &out.remaining_edges,
        prepartition ? PrepartitionedEdgesCounter() : ScoredEdgesCounter()));
    out.stream_passes += 1;
  }

  return Status::OK();
}

}  // namespace tpsl
