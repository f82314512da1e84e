#ifndef TPSL_CORE_TWO_PHASE_STATE_H_
#define TPSL_CORE_TWO_PHASE_STATE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/cluster_schedule.h"
#include "core/scoring.h"
#include "core/streaming_clustering.h"
#include "graph/degrees.h"
#include "graph/types.h"
#include "partition/replica_matrix.h"
#include "util/prefetch.h"
#include "util/random.h"

namespace tpsl {

/// Claims one load slot of a partition if it is below `capacity`: by
/// CAS when `shared`, by a plain load and store for a single worker.
inline bool TryClaim(std::atomic<uint64_t>& load, uint64_t capacity,
                     bool shared) {
  uint64_t current = load.load(std::memory_order_relaxed);
  if (!shared) {
    if (current >= capacity) {
      return false;
    }
    load.store(current + 1, std::memory_order_relaxed);
    return true;
  }
  while (current < capacity) {
    if (load.compare_exchange_weak(current, current + 1,
                                   std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

/// What 2PS's Phase 2 reads of Phase 1: exact degrees (paper
/// §III-A2), the vertex clustering (Algorithm 1) and its
/// cluster-to-partition schedule (Algorithm 2, step 1).
/// IncrementalPartitioner grows it in place as its graph changes.
struct TwoPhasePlan {
  DegreeTable degrees;
  Clustering clustering;
  ClusterSchedule schedule;

  uint64_t HeapBytes() const {
    return degrees.degrees.size() * sizeof(uint32_t) +
           clustering.HeapBytes() + schedule.HeapBytes();
  }
};

/// 2PS Phase-2 state of the engine's workers over the run's Phase-1
/// plan: the replica matrix and the partition loads, claimed (by CAS
/// when `shared` by several workers) before an edge is committed.
/// Workers Test the matrix with relaxed loads and Set it relaxed only
/// when shared; stale bits seen under concurrency affect scoring
/// quality, never correctness.
struct Phase2State {
  Phase2State(TwoPhasePlan phase1_plan, uint32_t num_partitions,
              uint64_t partition_capacity, uint64_t hash_seed,
              bool shared_state)
      : plan(std::move(phase1_plan)),
        replicas(plan.degrees.num_vertices(), num_partitions, shared_state),
        loads(num_partitions),
        capacity(partition_capacity),
        seed(hash_seed),
        shared(shared_state) {}

  /// The partitions the schedule maps the clusters of an edge's
  /// endpoints to. Algorithm 2 pre-partitions the edge iff p1 == p2.
  struct Candidates {
    ClusterId c1;
    ClusterId c2;
    PartitionId p1;
    PartitionId p2;

    bool prepartitioned() const { return p1 == p2; }
  };

  /// The two prefetch stages of the Phase-2 passes (ForEachStaged). The
  /// far stage pulls the rows the pass touches by vertex id: the
  /// endpoints' cluster ids and replica rows in both passes (the
  /// pre-partition pass writes the rows of every edge it places, the
  /// scoring pass reads and writes them) and, in the scoring pass only,
  /// their degrees. The near stage reads the cluster ids, cached by
  /// then, and pulls the rows they index: the clusters' partitions and,
  /// in the scoring pass, their volumes. Degrees and volumes are not
  /// pulled in the pre-partition pass, which reads degrees only on
  /// overflow: pulling them there slowed that pass down. Both stages
  /// are always inlined (see util/prefetch.h).
  [[gnu::always_inline]] void PrefetchVertexRows(const Edge& e,
                                                 bool scoring) const {
    const ClusterId* clusters = plan.clustering.vertex_cluster.data();
    PrefetchRead(clusters + e.first);
    PrefetchRead(clusters + e.second);
    replicas.PrefetchRow(e.first);
    replicas.PrefetchRow(e.second);
    if (scoring) {
      const uint32_t* degrees = plan.degrees.degrees.data();
      PrefetchRead(degrees + e.first);
      PrefetchRead(degrees + e.second);
    }
  }

  [[gnu::always_inline]] void PrefetchClusterRows(const Edge& e,
                                                  bool scoring) const {
    const ClusterId c1 = plan.clustering.vertex_cluster[e.first];
    const ClusterId c2 = plan.clustering.vertex_cluster[e.second];
    const PartitionId* partitions = plan.schedule.cluster_partition.data();
    PrefetchRead(partitions + c1);
    PrefetchRead(partitions + c2);
    if (scoring) {
      const uint64_t* volumes = plan.clustering.cluster_volumes.data();
      PrefetchRead(volumes + c1);
      PrefetchRead(volumes + c2);
    }
  }

  Candidates Classify(const Edge& e) const {
    const ClusterId c1 = plan.clustering.vertex_cluster[e.first];
    const ClusterId c2 = plan.clustering.vertex_cluster[e.second];
    return {c1, c2, plan.schedule.cluster_partition[c1],
            plan.schedule.cluster_partition[c2]};
  }

  /// 2PS-L's choice for one edge (Algorithm 2): a pre-partitioned edge
  /// goes to its clusters' partition (lines 16-26); any other is scored
  /// on exactly its two candidate partitions (lines 27-44), with the
  /// cluster-volume terms unless `volume_term` is off.
  PartitionId PreferLinear(const Edge& e, const Candidates& c,
                           bool volume_term) const {
    if (c.prepartitioned()) {
      return c.p1;
    }
    const std::vector<uint64_t>& volumes = plan.clustering.cluster_volumes;
    return PickLinear<ReplicaMatrix::Access::kRelaxed>(
        replicas, e, plan.degrees.degree(e.first),
        plan.degrees.degree(e.second), volume_term ? volumes[c.c1] : 0,
        volume_term ? volumes[c.c2] : 0, c.p1, c.p2);
  }

  /// 2PS-L's step for one edge: Place claims PreferLinear's pick.
  PartitionId PlaceLinear(const Edge& e, const Candidates& c,
                          bool volume_term) {
    return Place(e, PreferLinear(e, c, volume_term));
  }

  /// Claims a partition for `e` and records both endpoints' replicas:
  /// `preferred`, then the overflow chain of Algorithm 2 — degree-based
  /// hashing on the higher-degree endpoint (line 41), then the
  /// least-loaded partition as the last resort the paper's prose
  /// describes. The CAS retry loops only matter under concurrency; some
  /// partition is always open while edges remain (k * capacity >= |E|).
  PartitionId Place(const Edge& e, PartitionId preferred) {
    const PartitionId target = Claim(e, preferred);
    replicas.Set(e.first, target);
    replicas.Set(e.second, target);
    return target;
  }

  PartitionId Claim(const Edge& e, PartitionId preferred) {
    if (TryClaim(loads[preferred], capacity, shared)) {
      return preferred;
    }
    const VertexId pivot =
        plan.degrees.degree(e.first) >= plan.degrees.degree(e.second)
            ? e.first
            : e.second;
    const uint32_t k = static_cast<uint32_t>(loads.size());
    const PartitionId hashed =
        static_cast<PartitionId>(Mix64(HashCombine(seed, pivot)) % k);
    if (hashed != preferred && TryClaim(loads[hashed], capacity, shared)) {
      return hashed;
    }
    for (;;) {  // Re-scanned on CAS failure.
      const PartitionId best = LeastLoaded();
      if (TryClaim(loads[best], capacity, shared)) {
        return best;
      }
    }
  }

  /// The least-loaded partition, lowest id on ties.
  PartitionId LeastLoaded() const {
    PartitionId best = 0;
    uint64_t best_load = loads[0].load(std::memory_order_relaxed);
    for (PartitionId p = 1; p < loads.size(); ++p) {
      const uint64_t load = loads[p].load(std::memory_order_relaxed);
      if (load < best_load) {
        best = p;
        best_load = load;
      }
    }
    return best;
  }

  /// 2PS-HDRF: HDRF over all k partitions with relaxed (stale-tolerant)
  /// load reads. Capacity is left to the overflow chain of Place.
  PartitionId PickHdrf(const Edge& e) const {
    const uint32_t du = plan.degrees.degree(e.first);
    const uint32_t dv = plan.degrees.degree(e.second);
    uint64_t max_load = 0;
    uint64_t min_load = UINT64_MAX;
    for (const auto& load : loads) {
      const uint64_t value = load.load(std::memory_order_relaxed);
      max_load = std::max(max_load, value);
      min_load = std::min(min_load, value);
    }
    double best_score = -1.0;
    PartitionId best = 0;
    for (PartitionId p = 0; p < loads.size(); ++p) {
      // Re-reads may exceed the max snapshot under concurrency; clamp
      // so the balance term never underflows.
      const uint64_t load =
          std::min(loads[p].load(std::memory_order_relaxed), max_load);
      const double score =
          HdrfReplicationScore(
              replicas.Test<ReplicaMatrix::Access::kRelaxed>(e.first, p),
              replicas.Test<ReplicaMatrix::Access::kRelaxed>(e.second, p), du,
              dv) +
          HdrfBalanceScore(load, max_load, min_load, kHdrfLambda);
      if (score > best_score) {
        best_score = score;
        best = p;
      }
    }
    return best;
  }

  /// Heap bytes of the plan, the matrix and the loads.
  uint64_t HeapBytes() const {
    return plan.HeapBytes() + replicas.HeapBytes() +
           loads.size() * sizeof(std::atomic<uint64_t>);
  }

  TwoPhasePlan plan;
  ReplicaMatrix replicas;
  std::vector<std::atomic<uint64_t>> loads;
  /// Per-partition cap. IncrementalPartitioner raises it as |E| grows.
  uint64_t capacity;
  const uint64_t seed;
  const bool shared;
};

}  // namespace tpsl

#endif  // TPSL_CORE_TWO_PHASE_STATE_H_
