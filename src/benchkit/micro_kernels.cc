#include "benchkit/micro_kernels.h"

#include <cstdint>
#include <vector>

#include "benchkit/runner.h"
#include "core/two_phase_state.h"
#include "graph/degrees.h"
#include "graph/types.h"
#include "partition/dense_bitset.h"
#include "partition/replica_matrix.h"
#include "partition/score_tables.h"
#include "util/random.h"
#include "util/timer.h"

namespace tpsl {
namespace benchkit {
namespace {

// Synthetic state shape shared by every kernel: enough vertices that
// the replication matrix misses L1/L2 (the real scoring regime), small
// enough that seeding it is milliseconds.
constexpr VertexId kNumVertices = 1u << 16;
// Per-kernel op counts at shift 0, sized so the whole scenario is
// tens of milliseconds in a release build on one core.
constexpr uint64_t kPickOps = 1u << 19;
constexpr uint64_t kHdrfOps = 1u << 16;  // O(k) per pick
constexpr uint64_t kBitsetBits = 1u << 20;
constexpr uint64_t kBitsetSweeps = 1u << 5;
constexpr uint64_t kSetTestOps = 1u << 19;

/// 2PS-L hot loop: the constant-time two-candidate pick plus the
/// placement (load claim and replica bits), on the same Phase2State the
/// core scores against, with pre-seeded replicas/degrees/volumes. The
/// timed region is exactly the per-edge work of the core's scoring
/// pass at one worker. The state is uncapped, so every claim lands on
/// the picked partition.
KernelResult TwopsPick(uint32_t k, uint64_t seed, uint64_t ops) {
  SplitMix64 rng(seed);
  TwoPhasePlan plan;
  plan.degrees.degrees.resize(kNumVertices);
  for (uint32_t& d : plan.degrees.degrees) {
    d = 1 + static_cast<uint32_t>(rng.NextBounded(63));
  }
  Phase2State state(std::move(plan), k, ScoreTables::kUncapped, seed,
                    /*shared=*/false);
  const DegreeTable& degrees = state.plan.degrees;
  std::vector<uint64_t> volumes(k);
  for (uint64_t& volume : volumes) {
    volume = 1 + rng.NextBounded(1u << 20);
  }
  for (VertexId v = 0; v < kNumVertices; ++v) {
    state.replicas.Set(v, static_cast<PartitionId>(rng.NextBounded(k)));
  }
  struct Item {
    Edge e;
    PartitionId p1;
    PartitionId p2;
  };
  std::vector<Item> work(ops);
  for (Item& item : work) {
    item.e = {static_cast<VertexId>(rng.NextBounded(kNumVertices)),
              static_cast<VertexId>(rng.NextBounded(kNumVertices))};
    item.p1 = static_cast<PartitionId>(rng.NextBounded(k));
    item.p2 = static_cast<PartitionId>(rng.NextBounded(k));
  }

  uint64_t checksum = 0;
  WallTimer timer;
  for (const Item& item : work) {
    const PartitionId p = state.Place(
        item.e, PickLinear<ReplicaMatrix::Access::kRelaxed>(
                    state.replicas, item.e, degrees.degree(item.e.first),
                    degrees.degree(item.e.second), volumes[item.p1],
                    volumes[item.p2], item.p1, item.p2));
    checksum = HashCombine(checksum, p);
  }
  return {timer.ElapsedSeconds(), ops, checksum};
}

/// HDRF hot loop: full-k argmax pick plus commit — the per-edge work
/// of the HDRF/ADWISE/HEP streaming phases.
KernelResult HdrfPick(uint32_t k, uint64_t seed, uint64_t ops) {
  SplitMix64 rng(seed);
  ScoreTables tables(kNumVertices, k, ScoreTables::kUncapped);
  std::vector<uint32_t> degrees(kNumVertices);
  for (uint32_t& d : degrees) {
    d = 1 + static_cast<uint32_t>(rng.NextBounded(63));
  }
  std::vector<Edge> work(ops);
  for (Edge& e : work) {
    e = {static_cast<VertexId>(rng.NextBounded(kNumVertices)),
         static_cast<VertexId>(rng.NextBounded(kNumVertices))};
  }
  uint64_t checksum = 0;
  WallTimer timer;
  for (const Edge& e : work) {
    const ScoreTables::Choice choice =
        tables.PickHdrf(e, degrees[e.first], degrees[e.second]);
    tables.Commit(e, choice.partition);
    checksum = HashCombine(checksum, choice.partition);
  }
  return {timer.ElapsedSeconds(), ops, checksum};
}

/// DenseBitset word loops: population count, intersection count, and
/// in-place OR sweeps over three seeded bitsets. One "op" is one
/// 64-bit word visited, so the rate is directly words per second.
KernelResult BitsetOps(uint64_t seed, uint64_t sweeps) {
  SplitMix64 rng(seed);
  DenseBitset a(kBitsetBits);
  DenseBitset b(kBitsetBits);
  DenseBitset c(kBitsetBits);
  for (uint64_t i = 0; i < kBitsetBits / 8; ++i) {
    a.Set(rng.NextBounded(kBitsetBits));
    b.Set(rng.NextBounded(kBitsetBits));
    c.Set(rng.NextBounded(kBitsetBits));
  }

  uint64_t checksum = 0;
  WallTimer timer;
  for (uint64_t sweep = 0; sweep < sweeps; ++sweep) {
    checksum = HashCombine(checksum, a.IntersectionCount(b));
    checksum = HashCombine(checksum, b.IntersectionCount(c));
    a.InplaceOr(b);
    checksum = HashCombine(checksum, a.Count());
  }
  const double seconds = timer.ElapsedSeconds();
  // 4 word sweeps per iteration (two intersections, one OR, one count).
  return {seconds, sweeps * 4 * (kBitsetBits / 64), checksum};
}

/// ReplicaMatrix random set/test mix — the bit-matrix access
/// pattern of every stateful scoring loop, without the arithmetic.
KernelResult ReplicaSetTest(uint32_t k, uint64_t seed, uint64_t ops) {
  SplitMix64 rng(seed);
  ReplicaMatrix replicas(kNumVertices, k);
  struct Item {
    VertexId v;
    PartitionId set_p;
    PartitionId test_p;
  };
  std::vector<Item> work(ops);
  for (Item& item : work) {
    item.v = static_cast<VertexId>(rng.NextBounded(kNumVertices));
    item.set_p = static_cast<PartitionId>(rng.NextBounded(k));
    item.test_p = static_cast<PartitionId>(rng.NextBounded(k));
  }

  uint64_t checksum = 0;
  WallTimer timer;
  for (const Item& item : work) {
    replicas.Set(item.v, item.set_p);
    checksum = HashCombine(
        checksum, replicas.Test(item.v, item.test_p) ? item.v : item.test_p);
  }
  checksum = HashCombine(checksum, replicas.TotalReplicas());
  return {timer.ElapsedSeconds(), ops, checksum};
}

}  // namespace

const std::vector<std::string>& MicroKernelNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "twops_pick", "hdrf_pick", "bitset_ops", "replica_set_test"};
  return *names;
}

std::vector<Kernel> MicroKernels(const Scenario& scenario, int shift) {
  const uint32_t k = scenario.k;
  const uint64_t seed = scenario.seed;
  const std::vector<std::string>& names = MicroKernelNames();
  return {
      {names[0], [=] { return TwopsPick(k, seed, ScaleOps(kPickOps, shift)); }},
      {names[1], [=] { return HdrfPick(k, seed, ScaleOps(kHdrfOps, shift)); }},
      {names[2],
       [=] { return BitsetOps(seed, ScaleOps(kBitsetSweeps, shift)); }},
      {names[3],
       [=] { return ReplicaSetTest(k, seed, ScaleOps(kSetTestOps, shift)); }},
  };
}

}  // namespace benchkit
}  // namespace tpsl
