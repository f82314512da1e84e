#ifndef TPSL_CORE_SCORING_H_
#define TPSL_CORE_SCORING_H_

#include <cstdint>

#include "graph/types.h"
#include "partition/replica_matrix.h"

namespace tpsl {

/// Scoring functions for stateful streaming edge partitioning.
///
/// PickLinear implements the paper's new constant-time scoring function
/// (§III-B Step 3): degree-weighted replication affinity plus a
/// cluster-volume affinity, evaluated on exactly two candidate
/// partitions. HdrfScore implements the classic HDRF function (Petroni
/// et al., CIKM'15), evaluated on all k partitions; it is shared by the
/// HDRF baseline and the 2PS-HDRF variant.

/// Per-endpoint replication term of the 2PS-L score:
/// g = 1 + (1 - d_self / (d_u + d_v)) if the vertex is replicated on p.
inline double TwopsReplicationTerm(bool replicated_on_p, uint32_t own_degree,
                                   uint64_t degree_sum) {
  if (!replicated_on_p) {
    return 0.0;
  }
  return 1.0 + (1.0 - static_cast<double>(own_degree) /
                          static_cast<double>(degree_sum));
}

/// Per-endpoint cluster-volume term of the 2PS-L score:
/// sc = vol(c_self) / (vol(c_u) + vol(c_v)) if c_self maps to p.
inline double TwopsClusterTerm(bool cluster_on_p, uint64_t own_volume,
                               uint64_t volume_sum) {
  if (!cluster_on_p || volume_sum == 0) {
    return 0.0;
  }
  return static_cast<double>(own_volume) / static_cast<double>(volume_sum);
}

/// 2PS-L constant-time pick over the two candidate partitions of an
/// edge whose endpoints' clusters map to p1 != p2: s(u, v, p) is both
/// endpoints' replication terms on p plus the cluster-volume term of the
/// endpoint whose cluster maps to p. Ties go to p1 (score1 >= score2).
/// A parallel run's workers Test the shared matrix with relaxed loads.
template <ReplicaMatrix::Access kAccess = ReplicaMatrix::Access::kPlain>
PartitionId PickLinear(const ReplicaMatrix& replicas, const Edge& e,
                       uint32_t du, uint32_t dv, uint64_t vol1,
                       uint64_t vol2, PartitionId p1, PartitionId p2) {
  const uint64_t degree_sum = static_cast<uint64_t>(du) + dv;
  const uint64_t volume_sum = vol1 + vol2;
  const auto score = [&](PartitionId p, uint64_t own_volume) {
    return TwopsReplicationTerm(replicas.Test<kAccess>(e.first, p), du,
                                degree_sum) +
           TwopsReplicationTerm(replicas.Test<kAccess>(e.second, p), dv,
                                degree_sum) +
           TwopsClusterTerm(true, own_volume, volume_sum);
  };
  return score(p1, vol1) >= score(p2, vol2) ? p1 : p2;
}

/// HDRF degree-weighted replication score C_REP(u, v, p).
/// θ_u = d_u / (d_u + d_v); an endpoint replicated on p contributes
/// 1 + (1 - θ_self).
inline double HdrfReplicationScore(bool u_on_p, bool v_on_p, uint32_t du,
                                   uint32_t dv) {
  const double degree_sum = static_cast<double>(du) + dv;
  double score = 0.0;
  if (u_on_p) {
    score += degree_sum > 0 ? 1.0 + (1.0 - du / degree_sum) : 1.0;
  }
  if (v_on_p) {
    score += degree_sum > 0 ? 1.0 + (1.0 - dv / degree_sum) : 1.0;
  }
  return score;
}

/// λ, the weight of the HDRF balance term, for every HDRF-scored
/// partitioner (HDRF, HEP, ADWISE, 2PS-HDRF); the paper's appendix sets
/// 1.1.
inline constexpr double kHdrfLambda = 1.1;

/// HDRF balance score C_BAL(p) = λ · (maxsize − |p|) / (ε + maxsize −
/// minsize).
inline double HdrfBalanceScore(uint64_t partition_size, uint64_t max_size,
                               uint64_t min_size, double lambda,
                               double epsilon = 1.0) {
  return lambda * static_cast<double>(max_size - partition_size) /
         (epsilon + static_cast<double>(max_size - min_size));
}

}  // namespace tpsl

#endif  // TPSL_CORE_SCORING_H_
