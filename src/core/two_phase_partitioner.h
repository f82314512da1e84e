#ifndef TPSL_CORE_TWO_PHASE_PARTITIONER_H_
#define TPSL_CORE_TWO_PHASE_PARTITIONER_H_

#include <string>

#include "core/streaming_clustering.h"
#include "core/two_phase_state.h"
#include "partition/partitioner.h"

namespace tpsl {

/// The paper's contribution: 2PS-L, a two-phase out-of-core edge
/// partitioner with O(|E|) run-time and O(|V|·k) space.
///
/// Phase 1 clusters vertices with a bounded-volume streaming pass
/// (Algorithm 1). Phase 2 (Algorithm 2) maps clusters to partitions
/// with Graham's LPT scheduling, pre-partitions all intra-cluster /
/// co-located-cluster edges, and streams the remaining edges scoring
/// only the two partitions associated with the endpoints' clusters.
///
/// The same class implements 2PS-HDRF (paper §V-D): identical Phase 1
/// and pre-partitioning, but the remaining edges are scored with the
/// HDRF function over all k partitions (O(|E|·k) worst case).
///
/// Every pass but the degree count runs on the execution engine
/// (exec::ParallelForEdges over PartitionConfig::exec). Shared workers
/// reserve partition capacity per batch in chunks (Phase2State::Claim)
/// so the balance cap holds at any thread count. With
/// exec.threads == 1 (the default) the run is deterministic. With more
/// threads, workers see slightly stale replication bits — the paper's
/// "staleness in state synchronization ... can lead to lower
/// partitioning quality" — and the emission order is nondeterministic.
class TwoPhasePartitioner : public Partitioner {
 public:
  enum class ScoringMode {
    kLinear,  // 2PS-L: two candidate partitions, constant-time score
    kHdrf,    // 2PS-HDRF: all k partitions, HDRF score
  };

  enum class SchedulingMode {
    kGraham,      // sorted list scheduling (paper default)
    kRoundRobin,  // ablation: volume-oblivious mapping
  };

  struct Options {
    ClusteringConfig clustering;
    ScoringMode scoring = ScoringMode::kLinear;
    SchedulingMode scheduling = SchedulingMode::kGraham;

    /// Ablation: drop the cluster-volume terms (sc_u + sc_v) from the
    /// linear score, reducing it to pure degree-weighted replication.
    bool use_cluster_volume_term = true;
  };

  TwoPhasePartitioner() = default;
  explicit TwoPhasePartitioner(Options options) : options_(options) {}

  std::string name() const override;

  Status Partition(EdgeStream& stream, const PartitionConfig& config,
                   AssignmentSink& sink, PartitionStats* stats) override;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

/// 2PS's Phase 1 and the schedule that opens Phase 2: the degree pass,
/// streaming clustering on config.exec (options.clustering.num_passes
/// passes) and the cluster-to-partition mapping of options.scheduling.
/// Times them as the "degree", "clustering" and "partitioning" phases
/// and counts the passes into `stats`, which may be null.
StatusOr<TwoPhasePlan> BuildTwoPhasePlan(
    EdgeStream& stream, const PartitionConfig& config,
    const TwoPhasePartitioner::Options& options, PartitionStats* stats);

}  // namespace tpsl

#endif  // TPSL_CORE_TWO_PHASE_PARTITIONER_H_
