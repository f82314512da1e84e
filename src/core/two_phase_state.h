#ifndef TPSL_CORE_TWO_PHASE_STATE_H_
#define TPSL_CORE_TWO_PHASE_STATE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "core/scoring.h"
#include "graph/degrees.h"
#include "graph/types.h"
#include "partition/replica_matrix.h"
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

/// 2PS-L Phase-2 state of the engine's workers: the run's replica
/// matrix and the partition loads, claimed (by CAS when `shared` by
/// several workers) before an edge is committed. Workers Test the
/// matrix with relaxed loads and Set it relaxed only when shared; stale
/// bits seen under concurrency affect scoring quality, never
/// correctness.
struct Phase2State {
  Phase2State(const DegreeTable& degree_table, uint32_t num_partitions,
              uint64_t partition_capacity, uint64_t hash_seed,
              bool shared_state)
      : degrees(degree_table),
        replicas(degree_table.num_vertices(), num_partitions, shared_state),
        loads(num_partitions),
        capacity(partition_capacity),
        seed(hash_seed),
        shared(shared_state) {}

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
    const VertexId pivot = degrees.degree(e.first) >= degrees.degree(e.second)
                               ? e.first
                               : e.second;
    const uint32_t k = static_cast<uint32_t>(loads.size());
    const PartitionId hashed =
        static_cast<PartitionId>(Mix64(HashCombine(seed, pivot)) % k);
    if (hashed != preferred && TryClaim(loads[hashed], capacity, shared)) {
      return hashed;
    }
    for (;;) {  // Re-scanned on CAS failure.
      PartitionId best = 0;
      uint64_t best_load = loads[0].load(std::memory_order_relaxed);
      for (PartitionId p = 1; p < k; ++p) {
        const uint64_t load = loads[p].load(std::memory_order_relaxed);
        if (load < best_load) {
          best = p;
          best_load = load;
        }
      }
      if (TryClaim(loads[best], capacity, shared)) {
        return best;
      }
    }
  }

  /// 2PS-HDRF: HDRF over all k partitions with relaxed (stale-tolerant)
  /// load reads. Capacity is left to the overflow chain of Place.
  PartitionId PickHdrf(const Edge& e, uint32_t du, uint32_t dv,
                       double lambda) const {
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
          HdrfBalanceScore(load, max_load, min_load, lambda);
      if (score > best_score) {
        best_score = score;
        best = p;
      }
    }
    return best;
  }

  uint64_t HeapBytes() const {
    return replicas.HeapBytes() + loads.size() * sizeof(std::atomic<uint64_t>);
  }

  const DegreeTable& degrees;
  ReplicaMatrix replicas;
  std::vector<std::atomic<uint64_t>> loads;
  const uint64_t capacity;
  const uint64_t seed;
  const bool shared;
};

}  // namespace tpsl

#endif  // TPSL_CORE_TWO_PHASE_STATE_H_
