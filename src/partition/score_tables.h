#ifndef TPSL_PARTITION_SCORE_TABLES_H_
#define TPSL_PARTITION_SCORE_TABLES_H_

#include <cstdint>
#include <vector>

#include "core/scoring.h"
#include "graph/edge_stream.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/replica_matrix.h"
#include "util/prefetch.h"
#include "util/status.h"

namespace tpsl {

/// The shared partitioner-state kernel: every stateful scoring loop in
/// the repo (the HDRF/Greedy/ADWISE/HEP/SNE/DNE baselines) scores
/// against this one struct instead of carrying its own ad-hoc copies of
/// the same arrays.
///
/// Layout is deliberately flat — the HDRF idiom (Petroni et al.,
/// CIKM'15) where the score decomposes into per-partition arrays:
///   * `v2p` replica matrix (ReplicaMatrix, owned, plain access),
///   * per-partition edge loads |p_i| with the running max.
/// Scoring helpers preserve each caller's exact iteration order and
/// tie-breaking, so migrating a partitioner onto the kernel is
/// byte-identical (enforced by the state_kernel_identity_test golden
/// checksums).
class ScoreTables {
 public:
  /// `capacity` is the hard per-partition edge cap (kUncapped when the
  /// caller enforces balance elsewhere).
  static constexpr uint64_t kUncapped = ~uint64_t{0};

  ScoreTables(VertexId num_vertices, uint32_t num_partitions,
              uint64_t capacity)
      : replicas_(num_vertices, num_partitions),
        loads_(num_partitions, 0),
        capacity_(capacity) {}

  uint32_t num_partitions() const {
    return static_cast<uint32_t>(loads_.size());
  }
  uint64_t capacity() const { return capacity_; }

  ReplicaMatrix& replicas() { return replicas_; }
  const ReplicaMatrix& replicas() const { return replicas_; }

  const std::vector<uint64_t>& loads() const { return loads_; }
  uint64_t load(PartitionId p) const { return loads_[p]; }

  /// Minimum load, O(k) scan (the minimum can move on any commit).
  uint64_t MinLoad() const {
    uint64_t min_load = loads_[0];
    for (const uint64_t load : loads_) {
      if (load < min_load) {
        min_load = load;
      }
    }
    return min_load;
  }

  /// Least-loaded partition, ignoring capacity (first minimum wins).
  PartitionId LeastLoaded() const {
    PartitionId best = 0;
    for (PartitionId p = 1; p < loads_.size(); ++p) {
      if (loads_[p] < loads_[best]) {
        best = p;
      }
    }
    return best;
  }

  /// Least-loaded partition with remaining capacity; kInvalidPartition
  /// when every partition is full.
  PartitionId LeastLoadedOpen() const {
    PartitionId best = kInvalidPartition;
    for (PartitionId p = 0; p < loads_.size(); ++p) {
      if (loads_[p] >= capacity_) {
        continue;
      }
      if (best == kInvalidPartition || loads_[p] < loads_[best]) {
        best = p;
      }
    }
    return best;
  }

  /// Records edge e on partition p: both endpoint replicas, the load,
  /// and the running max.
  void Commit(const Edge& e, PartitionId p) {
    replicas_.Set(e.first, p);
    replicas_.Set(e.second, p);
    if (++loads_[p] > max_load_) {
      max_load_ = loads_[p];
    }
  }

  /// Load-only commit for callers whose replica updates happen
  /// elsewhere (expander slots, redirect sinks).
  void AddLoad(PartitionId p) {
    if (++loads_[p] > max_load_) {
      max_load_ = loads_[p];
    }
  }

  /// Removes one edge from p (DNE-style over-claim rebalancing). After
  /// a SubLoad, the running max is an upper bound rather than exact;
  /// only callers that never score against it may use this.
  void SubLoad(PartitionId p) { --loads_[p]; }

  /// Pulls both endpoints' replica rows toward the cache; scoring
  /// loops issue this a few edges ahead (see ForEachEdgePrefetched).
  /// Always inlined (see util/prefetch.h).
  [[gnu::always_inline]] void PrefetchEdge(const Edge& e) const {
    replicas_.PrefetchRow(e.first);
    replicas_.PrefetchRow(e.second);
  }

  // --- Score-then-assign helpers (exact legacy arithmetic). ---

  struct Choice {
    PartitionId partition = kInvalidPartition;
    double score = -1.0;
  };

  /// HDRF argmax over the open partitions: replication score plus
  /// balance term against (running max, scanned min). Full partitions
  /// are skipped (the HDRF/HEP/ADWISE hard-cap convention).
  Choice PickHdrf(const Edge& e, uint32_t du, uint32_t dv) const {
    const uint64_t min_load = MinLoad();
    Choice choice;
    for (PartitionId p = 0; p < loads_.size(); ++p) {
      if (loads_[p] >= capacity_) {
        continue;
      }
      const double score =
          HdrfReplicationScore(replicas_.Test(e.first, p),
                               replicas_.Test(e.second, p), du, dv) +
          HdrfBalanceScore(loads_[p], max_load_, min_load, kHdrfLambda);
      if (score > choice.score) {
        choice.score = score;
        choice.partition = p;
      }
    }
    return choice;
  }

  /// PowerGraph greedy cascade (one O(k) scan): least-loaded partition
  /// holding both endpoints, else either endpoint, else least-loaded
  /// open partition. Full partitions are never candidates.
  PartitionId PickGreedy(const Edge& e) const {
    PartitionId best_common = kInvalidPartition;
    PartitionId best_either = kInvalidPartition;
    PartitionId best_any = kInvalidPartition;
    for (PartitionId p = 0; p < loads_.size(); ++p) {
      if (loads_[p] >= capacity_) {
        continue;
      }
      const bool u_on = replicas_.Test(e.first, p);
      const bool v_on = replicas_.Test(e.second, p);
      if (u_on && v_on &&
          (best_common == kInvalidPartition ||
           loads_[p] < loads_[best_common])) {
        best_common = p;
      }
      if ((u_on || v_on) &&
          (best_either == kInvalidPartition ||
           loads_[p] < loads_[best_either])) {
        best_either = p;
      }
      if (best_any == kInvalidPartition || loads_[p] < loads_[best_any]) {
        best_any = p;
      }
    }
    if (best_common != kInvalidPartition) {
      return best_common;
    }
    return best_either != kInvalidPartition ? best_either : best_any;
  }

  /// Exact bytes held by the kernel state (replication matrix +
  /// loads). Attached views are owned elsewhere and counted
  /// by their owners.
  uint64_t HeapBytes() const {
    return replicas_.HeapBytes() + loads_.size() * sizeof(uint64_t);
  }

 private:
  ReplicaMatrix replicas_;
  std::vector<uint64_t> loads_;
  uint64_t capacity_;
  /// Running maximum load, maintained incrementally by Commit/AddLoad:
  /// equal to max(loads) without the O(k) rescan per edge.
  uint64_t max_load_ = 0;
};

/// The shared per-batch throughput counter behind every scoring loop:
/// one relaxed Add per batch, so obs snapshots
/// can report edges scored without touching the per-edge path.
inline obs::Counter* ScoredEdgesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Default().GetCounter("partition.edges_scored");
  return counter;
}

/// One full pass in stream order — the batched score-then-assign
/// driver. `prefetch(edge)`, which must be [[gnu::always_inline]], is
/// ForEachStaged's near stage, issued kNearPrefetchDistance edges ahead
/// of `process(edge)`; processing order is exactly stream order, so the
/// pass is byte-identical to a plain ForEachEdge. `process` returns
/// whether it scored and placed the edge; each batch adds those edges,
/// and only those, to partition.edges_scored.
template <typename PrefetchFn, typename ProcessFn>
Status ForEachEdgePrefetched(EdgeStream& stream, PrefetchFn&& prefetch,
                             ProcessFn&& process) {
  TPSL_RETURN_IF_ERROR(stream.Reset());
  constexpr size_t kBatch = 4096;
  Edge buffer[kBatch];
  size_t n;
  while ((n = stream.Next(buffer, kBatch)) > 0) {
    obs::TraceSpan span("score.batch", "partition");
    uint64_t scored = 0;
    ForEachStaged(buffer, n, NoPrefetch(), prefetch,
                  [&](const Edge& e) { scored += process(e) ? 1 : 0; });
    ScoredEdgesCounter()->Add(scored);
  }
  return stream.Health();
}

}  // namespace tpsl

#endif  // TPSL_PARTITION_SCORE_TABLES_H_
