#include <gtest/gtest.h>

#include "core/scoring.h"
#include "partition/replica_matrix.h"

namespace tpsl {
namespace {

TEST(TwopsScoringTest, ReplicationTermZeroWhenNotReplicated) {
  EXPECT_DOUBLE_EQ(TwopsReplicationTerm(false, 10, 30), 0.0);
}

TEST(TwopsScoringTest, ReplicationTermFormula) {
  // g = 1 + (1 - d_self / (d_u + d_v)).
  EXPECT_DOUBLE_EQ(TwopsReplicationTerm(true, 10, 40), 1.0 + (1.0 - 0.25));
  EXPECT_DOUBLE_EQ(TwopsReplicationTerm(true, 40, 40), 1.0);  // d == sum
}

TEST(TwopsScoringTest, LowDegreeEndpointScoresHigher) {
  // Replicating the low-degree endpoint is worth more (it is cheaper
  // to keep it local than a hub that is replicated anyway).
  const double low = TwopsReplicationTerm(true, 2, 100);
  const double high = TwopsReplicationTerm(true, 98, 100);
  EXPECT_GT(low, high);
}

TEST(TwopsScoringTest, ClusterTermProportionalToVolume) {
  EXPECT_DOUBLE_EQ(TwopsClusterTerm(true, 30, 100), 0.3);
  EXPECT_DOUBLE_EQ(TwopsClusterTerm(false, 30, 100), 0.0);
  EXPECT_DOUBLE_EQ(TwopsClusterTerm(true, 30, 0), 0.0);  // guard
}

TEST(TwopsScoringTest, FullScoreRange) {
  // A scored candidate gets both endpoints' replication terms (each
  // below 2) and one cluster term (at most 1): below 5. Both clusters
  // on one partition is the pre-partition case, which is never scored.
  const double score = TwopsReplicationTerm(true, 1, 2) +
                       TwopsReplicationTerm(true, 1, 2) +
                       TwopsClusterTerm(true, 50, 100);
  EXPECT_GT(score, 0.0);
  EXPECT_LT(score, 5.0);
}

TEST(TwopsScoringTest, PrefersPartitionWithBothReplicas) {
  ReplicaMatrix replicas(4, 2);
  replicas.Set(0, 0);
  replicas.Set(1, 0);
  replicas.Set(0, 1);  // only one endpoint on partition 1
  const Edge e{0, 1};
  EXPECT_EQ(PickLinear(replicas, e, 5, 5, 10, 10, /*p1=*/0, /*p2=*/1), 0u);
  EXPECT_EQ(PickLinear(replicas, e, 5, 5, 10, 10, /*p1=*/1, /*p2=*/0), 0u);
}

TEST(TwopsScoringTest, TiesGoToFirstCandidate) {
  ReplicaMatrix replicas(4, 2);
  const Edge e{2, 3};
  EXPECT_EQ(PickLinear(replicas, e, 3, 3, 7, 7, /*p1=*/1, /*p2=*/0), 1u);
  // Otherwise the larger cluster volume decides.
  EXPECT_EQ(PickLinear(replicas, e, 3, 3, 7, 8, /*p1=*/1, /*p2=*/0), 0u);
}

TEST(HdrfScoringTest, NoReplicasNoScore) {
  EXPECT_DOUBLE_EQ(HdrfReplicationScore(false, false, 5, 5), 0.0);
}

TEST(HdrfScoringTest, DegreeWeighting) {
  // θ_u = d_u / (d_u + d_v); replicated endpoint contributes
  // 1 + (1 - θ_self). The lower-degree endpoint contributes more.
  const double low_degree_on = HdrfReplicationScore(true, false, 10, 90);
  const double high_degree_on = HdrfReplicationScore(false, true, 10, 90);
  EXPECT_DOUBLE_EQ(low_degree_on, 1.0 + 0.9);
  EXPECT_DOUBLE_EQ(high_degree_on, 1.0 + 0.1);
}

TEST(HdrfScoringTest, BothReplicatedIsMax) {
  const double both = HdrfReplicationScore(true, true, 10, 10);
  EXPECT_DOUBLE_EQ(both, 3.0);  // 2 * (1 + 0.5)
}

TEST(HdrfScoringTest, BalanceScorePrefersEmptyPartition) {
  const double empty = HdrfBalanceScore(0, 100, 0, 1.1);
  const double full = HdrfBalanceScore(100, 100, 0, 1.1);
  EXPECT_GT(empty, full);
  EXPECT_DOUBLE_EQ(full, 0.0);
}

TEST(HdrfScoringTest, BalanceScoreScalesWithLambda) {
  EXPECT_GT(HdrfBalanceScore(0, 100, 0, 2.0),
            HdrfBalanceScore(0, 100, 0, 1.0));
}

TEST(HdrfScoringTest, BalanceScoreBoundedByLambda) {
  // C_BAL <= λ (ε = 1 keeps it strictly below).
  for (uint64_t load = 0; load <= 100; load += 10) {
    EXPECT_LE(HdrfBalanceScore(load, 100, 0, 1.1), 1.1);
  }
}

TEST(HdrfScoringTest, ZeroDegreesAreSafe) {
  // Degenerate but must not divide by zero.
  EXPECT_DOUBLE_EQ(HdrfReplicationScore(true, false, 0, 0), 1.0);
}

}  // namespace
}  // namespace tpsl
