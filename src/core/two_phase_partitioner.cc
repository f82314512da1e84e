#include "core/two_phase_partitioner.h"

#include <mutex>
#include <utility>
#include <vector>

#include "core/cluster_schedule.h"
#include "core/two_phase_state.h"
#include "exec/parallel_for_edges.h"
#include "graph/degrees.h"
#include "partition/score_tables.h"
#include "util/prefetch.h"
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

/// Edges whose claimed partition differs from the one they were placed
/// toward: the preferred partition was full (Algorithm 2, line 41).
obs::Counter* OverflowEdgesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Default().GetCounter("partition.overflow_edges");
  return counter;
}

/// Where one edge went: the partition it was placed toward and the one
/// it claimed. A skipped edge has `claimed` == kInvalidPartition.
struct Placement {
  PartitionId preferred;
  PartitionId claimed;
};

/// One engine-driven pass: workers run `process(edge)`, which returns
/// the edge's Placement, behind the prefetch stages `far` and `near`
/// (ForEachStaged). Placed edges are added to `*placed` and, one Add
/// per batch, to `placed_counter`; overflowed ones likewise to
/// `*overflowed` and partition.overflow_edges. Each batch's assignments
/// go out in one AssignBatch call under the pass's one mutex, so the
/// sink sees one caller at a time at every thread count.
template <typename FarFn, typename NearFn, typename ProcessFn>
Status ParallelPass(EdgeStream& stream, const exec::ExecContext& exec,
                    AssignmentSink& sink, const FarFn& far,
                    const NearFn& near, const ProcessFn& process,
                    uint64_t* placed, uint64_t* overflowed,
                    obs::Counter* placed_counter) {
  std::mutex sink_mutex;
  uint64_t total = 0;            // guarded by sink_mutex
  uint64_t total_overflows = 0;  // guarded by sink_mutex
  TPSL_RETURN_IF_ERROR(exec::ParallelForEdges(
      stream, exec,
      [&](const Edge* edges, size_t count) -> Status {
        obs::TraceSpan span("score.batch", "partition");
        std::vector<Assignment> results;
        results.reserve(count);
        uint64_t overflows = 0;
        ForEachStaged(edges, count, far, near, [&](const Edge& e) {
          const Placement placement = process(e);
          if (placement.claimed != kInvalidPartition) {
            results.push_back({e, placement.claimed});
            overflows += placement.claimed != placement.preferred;
          }
        });
        if (!results.empty()) {
          std::lock_guard<std::mutex> lock(sink_mutex);
          sink.AssignBatch(results.data(), results.size());
          total += results.size();
          total_overflows += overflows;
        }
        placed_counter->Add(results.size());
        OverflowEdgesCounter()->Add(overflows);
        return Status::OK();
      }));
  *placed += total;
  *overflowed += total_overflows;
  return Status::OK();
}

}  // namespace

std::string TwoPhasePartitioner::name() const {
  return options_.scoring == ScoringMode::kLinear ? "2PS-L" : "2PS-HDRF";
}

StatusOr<TwoPhasePlan> BuildTwoPhasePlan(
    EdgeStream& stream, const PartitionConfig& config,
    const TwoPhasePartitioner::Options& options, PartitionStats* stats) {
  if (config.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  if (config.exec.batch_size == 0) {
    return Status::InvalidArgument("exec.batch_size must be positive");
  }
  TwoPhasePlan plan;
  {
    // Reported separately, as in paper Fig. 5.
    PhaseTimer timer(stats, "degree");
    TPSL_ASSIGN_OR_RETURN(plan.degrees, ComputeDegrees(stream));
  }
  {
    PhaseTimer timer(stats, "clustering");
    TPSL_ASSIGN_OR_RETURN(
        plan.clustering,
        ParallelStreamingClustering(stream, plan.degrees,
                                    config.num_partitions, options.clustering,
                                    config.exec));
  }
  {
    // Step 1 of Algorithm 2, so it counts as partitioning.
    PhaseTimer timer(stats, "partitioning");
    plan.schedule =
        options.scheduling == TwoPhasePartitioner::SchedulingMode::kGraham
            ? ScheduleClustersGraham(plan.clustering.cluster_volumes,
                                     config.num_partitions)
            : ScheduleClustersRoundRobin(plan.clustering.cluster_volumes,
                                         config.num_partitions);
  }
  if (stats != nullptr) {
    stats->stream_passes += 1 + options.clustering.num_passes;
  }
  return plan;
}

Status TwoPhasePartitioner::Partition(EdgeStream& stream,
                                      const PartitionConfig& config,
                                      AssignmentSink& sink,
                                      PartitionStats* stats) {
  PartitionStats local_stats;
  PartitionStats& out = stats != nullptr ? *stats : local_stats;
  TPSL_ASSIGN_OR_RETURN(TwoPhasePlan plan,
                        BuildTwoPhasePlan(stream, config, options_, &out));

  // --- Phase 2: pre-partitioning and scoring passes. ---
  PhaseTimer partition_timer(&out, "partitioning");
  const uint64_t capacity = config.PartitionCapacity(plan.degrees.num_edges);
  Phase2State state(std::move(plan), config.num_partitions, capacity,
                    config.seed, /*shared=*/config.exec.Workers() > 1);
  out.state_bytes = state.HeapBytes();

  const LentReplicas lent(sink, state.replicas);

  // Two passes classify every edge the same way. Step 2 places edges
  // whose endpoints' clusters are mapped to the same partition, which
  // includes endpoints sharing a cluster (lines 16-26); step 3 scores
  // the rest (lines 27-44).
  const bool linear = options_.scoring == ScoringMode::kLinear;
  for (const bool prepartition : {true, false}) {
    const bool scoring = !prepartition;
    TPSL_RETURN_IF_ERROR(ParallelPass(
        stream, config.exec, sink,
        [&] [[gnu::always_inline]] (const Edge& e) {
          state.PrefetchVertexRows(e, scoring);
        },
        [&] [[gnu::always_inline]] (const Edge& e) {
          state.PrefetchClusterRows(e, scoring);
        },
        [&](const Edge& e) -> Placement {
          const Phase2State::Candidates c = state.Classify(e);
          if (c.prepartitioned() != prepartition) {
            // The other pass places it.
            return {kInvalidPartition, kInvalidPartition};
          }
          const PartitionId preferred =
              !linear && !prepartition
                  ? state.PickHdrf(e)
                  : state.PreferLinear(e, c, options_.use_cluster_volume_term);
          return {preferred, state.Place(e, preferred)};
        },
        prepartition ? &out.prepartitioned_edges : &out.remaining_edges,
        &out.overflow_edges,
        prepartition ? PrepartitionedEdgesCounter() : ScoredEdgesCounter()));
    out.stream_passes += 1;
  }

  return Status::OK();
}

}  // namespace tpsl
