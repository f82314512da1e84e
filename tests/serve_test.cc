#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dynamic/incremental_partitioner.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "obs/metrics.h"
#include "partition/assignment_sink.h"
#include "serve/edge_ledger.h"
#include "serve/partition_service.h"
#include "serve/serve_scenario.h"
#include "serve/serving_table.h"
#include "serve/traffic.h"
#include "util/random.h"

namespace tpsl {
namespace serve {
namespace {

constexpr VertexId kBaseVertices = 1 << 12;

std::vector<Edge> BaseGraph() {
  SocialNetworkConfig config;
  config.num_vertices = kBaseVertices;
  config.clique_size = 8;
  config.seed = 99;
  return GenerateSocialNetwork(config);
}

PartitionConfig Config(uint32_t k) {
  PartitionConfig config;
  config.num_partitions = k;
  config.seed = 42;
  config.exec.threads = 1;
  return config;
}

void ExpectTableMatchesOracle(const ServingTable& table,
                              const IncrementalPartitioner& state,
                              const std::vector<Edge>& probe_edges) {
  const ReplicaMatrix& replicas = *state.replicas();
  ASSERT_EQ(table.num_vertices(), replicas.num_vertices());
  for (VertexId v = 0; v < table.num_vertices(); ++v) {
    const VertexLookup got = table.LookupVertex(v);
    const VertexLookup want = OracleLookupVertex(replicas, v);
    ASSERT_EQ(got.found, want.found) << "vertex " << v;
    ASSERT_EQ(got.replica_count, want.replica_count) << "vertex " << v;
    ASSERT_EQ(got.primary, want.primary) << "vertex " << v;
  }
  const uint64_t seed = state.config().seed;
  for (const Edge& e : probe_edges) {
    ASSERT_EQ(table.RouteEdge(e), OracleRouteEdge(replicas, e, seed))
        << "edge (" << e.first << "," << e.second << ")";
  }
}

/// A probe mix: the base edges themselves, plus pairs where one or
/// both endpoints are unknown to the table.
std::vector<Edge> ProbeEdges(const std::vector<Edge>& base) {
  std::vector<Edge> probes(base.begin(),
                           base.begin() + std::min<size_t>(base.size(), 4096));
  SplitMix64 rng(123);
  for (int i = 0; i < 4096; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(kBaseVertices * 2));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(kBaseVertices * 2));
    if (u != v) {
      probes.push_back(Edge{u, v});
    }
  }
  return probes;
}

using LedgerOracle = std::unordered_map<Edge, std::vector<PartitionId>>;

struct LedgerRunCounts {
  uint32_t max_depth = 0;
  uint64_t readds = 0;  // pushes onto an edge whose stack was popped empty
};

/// Runs `ops` random Push/PopOldest/Top operations over edges with
/// endpoints below `vertices` against a map-of-stacks oracle (back =
/// newest), checking every answer and the live count. Pushes and pops
/// are equally likely and a stack never grows past 5, so stacks wander
/// over depths 0-5.
LedgerRunCounts RunLedgerAgainstOracle(EdgeLedger& ledger,
                                       LedgerOracle& oracle,
                                       VertexId vertices, int ops,
                                       uint64_t seed) {
  SplitMix64 rng(seed);
  LedgerRunCounts counts;
  uint64_t live = 0;
  for (int i = 0; i < ops; ++i) {
    const Edge e{static_cast<VertexId>(rng.NextBounded(vertices)),
                 static_cast<VertexId>(rng.NextBounded(vertices))};
    const bool seen = oracle.contains(e);
    std::vector<PartitionId>& stack = oracle[e];
    const PartitionId want_top =
        stack.empty() ? EdgeLedger::kNone : stack.back();
    const PartitionId want_oldest =
        stack.empty() ? EdgeLedger::kNone : stack.front();
    const uint64_t dice = rng.NextBounded(20);
    if (dice < 9 && stack.size() < 5) {
      const auto p = static_cast<PartitionId>(rng.NextBounded(64));
      if (seen && stack.empty()) {
        ++counts.readds;
      }
      ledger.Push(e, p);
      stack.push_back(p);
      ++live;
      counts.max_depth =
          std::max(counts.max_depth, static_cast<uint32_t>(stack.size()));
    } else if (dice < 18) {
      EXPECT_EQ(ledger.PopOldest(e), want_oldest) << "op " << i;
      if (!stack.empty()) {
        stack.erase(stack.begin());
        --live;
      }
    } else {
      EXPECT_EQ(ledger.Top(e), want_top) << "op " << i;
    }
    EXPECT_EQ(ledger.size(), live) << "op " << i;
    if (::testing::Test::HasFailure()) {
      return counts;
    }
  }
  for (const auto& [e, stack] : oracle) {
    EXPECT_EQ(ledger.Top(e), stack.empty() ? EdgeLedger::kNone : stack.back())
        << "edge (" << e.first << "," << e.second << ")";
  }
  return counts;
}

TEST(EdgeLedgerTest, MatchesMapOfStacksOracle) {
  // 36 keys keep a 64-slot table near half full, so erases land inside
  // collision chains; 4096 keys grow it from empty through each
  // doubling to thousands of slots.
  for (const VertexId vertices : {6u, 64u}) {
    EdgeLedger ledger;
    LedgerOracle oracle;
    const LedgerRunCounts counts = RunLedgerAgainstOracle(
        ledger, oracle, vertices, /*ops=*/100000, /*seed=*/vertices);
    ASSERT_FALSE(HasFailure()) << "vertices=" << vertices;
    EXPECT_EQ(counts.max_depth, 5u) << "vertices=" << vertices;
    EXPECT_GT(counts.readds, 0u) << "vertices=" << vertices;
  }
}

TEST(EdgeLedgerTest, BackwardShiftKeepsCollisionChainsIntact) {
  // Pick keys for a 16-slot table by the ledger's home slot
  // (Mix64 of the packed edge, masked): five share slot 13, three more
  // home at 14, and three at 15, so the chain wraps past the end of the
  // table. Erasing each one in turn must leave every other findable.
  constexpr uint64_t kMask = 15;
  std::vector<Edge> keys;
  uint32_t want[16] = {};
  want[13] = 5;
  want[14] = 3;
  want[15] = 3;
  for (VertexId u = 0; keys.size() < 11; ++u) {
    const Edge e{u, u + 1};
    const uint64_t home =
        Mix64((static_cast<uint64_t>(e.first) << 32) | e.second) & kMask;
    if (want[home] > 0) {
      --want[home];
      keys.push_back(e);
    }
  }
  for (size_t erased = 0; erased < keys.size(); ++erased) {
    EdgeLedger ledger;
    ledger.Reserve(keys.size());
    const uint64_t bytes = ledger.HeapBytes();
    for (size_t i = 0; i < keys.size(); ++i) {
      ledger.Push(keys[i], static_cast<PartitionId>(i));
    }
    ASSERT_EQ(ledger.HeapBytes(), bytes) << "the table must not grow";
    ASSERT_EQ(ledger.PopOldest(keys[erased]), erased);
    EXPECT_EQ(ledger.Top(keys[erased]), EdgeLedger::kNone);
    EXPECT_EQ(ledger.PopOldest(keys[erased]), EdgeLedger::kNone);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i != erased) {
        EXPECT_EQ(ledger.Top(keys[i]), i) << "erased " << erased;
      }
    }
    ledger.Push(keys[erased], 99);
    EXPECT_EQ(ledger.Top(keys[erased]), 99u);
    EXPECT_EQ(ledger.size(), keys.size());
  }
}

TEST(EdgeLedgerTest, DistinctEdgesCostNoAllocationAndSentinelIsAbsent) {
  EdgeLedger ledger;
  EXPECT_EQ(ledger.Top(Edge{1, 2}), EdgeLedger::kNone);
  EXPECT_EQ(ledger.PopOldest(Edge{1, 2}), EdgeLedger::kNone);
  ledger.Reserve(3000);
  const uint64_t bytes = ledger.HeapBytes();
  // 3000 keys at load <= 3/4 need 4096 slots of 16 bytes.
  EXPECT_EQ(bytes, 4096u * 16u);
  for (VertexId v = 0; v < 3000; ++v) {
    ledger.Push(Edge{v, v + 7}, v % 32);
  }
  EXPECT_EQ(ledger.HeapBytes(), bytes);
  EXPECT_EQ(ledger.size(), 3000u);
  // The empty-slot key never matches, even in a populated table.
  EXPECT_EQ(ledger.Top(Edge{kInvalidVertex, kInvalidVertex}),
            EdgeLedger::kNone);
  EXPECT_EQ(ledger.PopOldest(Edge{kInvalidVertex, kInvalidVertex}),
            EdgeLedger::kNone);
  // A duplicate's below-top entry takes one 8-byte pool node, which a
  // pop frees for the next duplicate.
  ledger.Push(Edge{0, 7}, 5);
  EXPECT_EQ(ledger.HeapBytes(), bytes + 8u);
  EXPECT_EQ(ledger.PopOldest(Edge{0, 7}), 0u);
  ledger.Push(Edge{1, 8}, 6);
  EXPECT_EQ(ledger.HeapBytes(), bytes + 8u);
  EXPECT_EQ(ledger.PopOldest(Edge{1, 8}), 1u);
  EXPECT_EQ(ledger.PopOldest(Edge{1, 8}), 6u);
  EXPECT_EQ(ledger.PopOldest(Edge{0, 7}), 5u);
  EXPECT_EQ(ledger.Top(Edge{0, 7}), EdgeLedger::kNone);
  EXPECT_EQ(ledger.size(), 2998u);
}

/// Runs random Push/PopOldest/ForEachValue/Top operations against a
/// map of deques (front = oldest), with stacks wandering over depths
/// 0-5, checking every answer and the live count.
TEST(EdgeLedgerTest, PopOldestAndForEachValueMatchDequeOracle) {
  for (const VertexId vertices : {6u, 64u}) {
    EdgeLedger ledger;
    std::unordered_map<Edge, std::deque<uint32_t>> oracle;
    SplitMix64 rng(vertices + 1);
    uint64_t live = 0;
    uint32_t next_value = 0;
    uint32_t depth_seen[6] = {};
    for (int i = 0; i < 100000; ++i) {
      const Edge e{static_cast<VertexId>(rng.NextBounded(vertices)),
                   static_cast<VertexId>(rng.NextBounded(vertices))};
      std::deque<uint32_t>& values = oracle[e];
      const uint64_t dice = rng.NextBounded(20);
      if (dice < 9 && values.size() < 5) {
        ledger.Push(e, next_value);
        values.push_back(next_value++);
        ++live;
      } else if (dice < 18) {
        EXPECT_EQ(ledger.PopOldest(e),
                  values.empty() ? EdgeLedger::kNone : values.front())
            << "op " << i;
        if (!values.empty()) {
          values.pop_front();
          --live;
        }
      } else {
        std::vector<uint32_t> newest_first;
        ledger.ForEachValue(e, [&](uint32_t v) { newest_first.push_back(v); });
        EXPECT_EQ(newest_first,
                  std::vector<uint32_t>(values.rbegin(), values.rend()))
            << "op " << i;
        EXPECT_EQ(ledger.Top(e),
                  values.empty() ? EdgeLedger::kNone : values.back())
            << "op " << i;
      }
      ++depth_seen[values.size()];
      ASSERT_EQ(ledger.size(), live) << "op " << i;
      ASSERT_FALSE(HasFailure()) << "vertices=" << vertices;
    }
    for (uint32_t depth = 1; depth <= 5; ++depth) {
      EXPECT_GT(depth_seen[depth], 0u) << "depth " << depth;
    }
    for (const auto& [e, values] : oracle) {
      std::vector<uint32_t> newest_first;
      ledger.ForEachValue(e, [&](uint32_t v) { newest_first.push_back(v); });
      EXPECT_EQ(newest_first,
                std::vector<uint32_t>(values.rbegin(), values.rend()));
    }
  }
}

TEST(EdgeLedgerTest, RemapValuesKeepsStackOrder) {
  // Stacks of depth 1-4 hold values 0..N-1 in push order; a monotone
  // map (v -> 3v + 1) must rewrite every value and keep each order.
  EdgeLedger ledger;
  std::unordered_map<Edge, std::vector<uint32_t>> oracle;  // oldest first
  uint32_t value = 0;
  for (uint32_t round = 0; round < 4; ++round) {
    for (VertexId u = 0; u < 200; ++u) {
      if (u % 4 >= round) {
        const Edge e{u, u + 1};
        ledger.Push(e, value);
        oracle[e].push_back(value++);
      }
    }
  }
  // Free some pool nodes first: remapping must skip the free list, as
  // a map that indexes a position array cannot take dead values.
  for (VertexId u = 3; u < 200; u += 8) {
    const Edge e{u, u + 1};
    ASSERT_EQ(ledger.PopOldest(e), oracle[e].front());
    oracle[e].erase(oracle[e].begin());
  }
  std::vector<bool> is_live(value, false);
  for (const auto& [e, values] : oracle) {
    for (const uint32_t v : values) {
      is_live[v] = true;
    }
  }
  uint64_t remapped = 0;
  ledger.RemapValues([&](uint32_t v) {
    EXPECT_TRUE(v < value && is_live[v]) << "remapped dead value " << v;
    ++remapped;
    return 3 * v + 1;
  });
  EXPECT_EQ(remapped, value - 25u);
  EXPECT_EQ(ledger.size(), value - 25u);
  for (const auto& [e, values] : oracle) {
    std::vector<uint32_t> want;
    for (auto it = values.rbegin(); it != values.rend(); ++it) {
      want.push_back(3 * *it + 1);
    }
    std::vector<uint32_t> got;
    ledger.ForEachValue(e, [&](uint32_t v) { got.push_back(v); });
    EXPECT_EQ(got, want) << "edge (" << e.first << "," << e.second << ")";
  }
}

TEST(ServingTableTest, BuildMatchesOracleEverywhere) {
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  IncrementalPartitioner partitioner(Config(16));
  CountingSink sink(16);
  ASSERT_TRUE(partitioner.Bootstrap(stream, sink).ok());

  const auto table = BuildServingTable(partitioner, /*epoch=*/1);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->epoch(), 1u);
  EXPECT_EQ(table->live_edges(), partitioner.num_edges());
  EXPECT_EQ(table->loads(), partitioner.loads());
  ExpectTableMatchesOracle(*table, partitioner, ProbeEdges(edges));
}

TEST(ServingTableTest, LookupOutsideTableIsNotFound) {
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  IncrementalPartitioner partitioner(Config(8));
  CountingSink sink(8);
  ASSERT_TRUE(partitioner.Bootstrap(stream, sink).ok());
  const auto table = BuildServingTable(partitioner, 1);
  const VertexLookup miss = table->LookupVertex(kBaseVertices * 16);
  EXPECT_FALSE(miss.found);
  EXPECT_EQ(miss.replica_count, 0u);
  EXPECT_EQ(miss.primary, kInvalidPartition);
}

TEST(PartitionServiceTest, PatchedSnapshotEqualsFullRebuild) {
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  PartitionService::Options options;
  options.publish_batch_edges = 32;  // force many delta patches
  options.rebootstrap_threshold = PartitionService::kNeverRebootstrap;
  PartitionService service(Config(16), options);
  ASSERT_TRUE(service.Bootstrap(stream).ok());

  // A few hundred adds (new vertices force chunk growth) and removals
  // of a slice of them, spread across many publish boundaries.
  SplitMix64 rng(7);
  std::vector<Edge> added;
  for (int i = 0; i < 500; ++i) {
    const Edge e{static_cast<VertexId>(rng.NextBounded(kBaseVertices)),
                 kBaseVertices + static_cast<VertexId>(i)};
    ASSERT_TRUE(service.AddEdge(e).ok());
    added.push_back(e);
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(service.RemoveEdge(added[static_cast<size_t>(i) * 2]).ok());
  }
  ASSERT_TRUE(service.Flush().ok());

  const auto patched = service.CurrentSnapshot();
  ASSERT_NE(patched, nullptr);
  const auto rebuilt =
      BuildServingTable(service.partitioner_for_test(), patched->epoch());
  ASSERT_EQ(patched->num_vertices(), rebuilt->num_vertices());
  EXPECT_EQ(patched->live_edges(), rebuilt->live_edges());
  EXPECT_EQ(patched->loads(), rebuilt->loads());
  for (VertexId v = 0; v < patched->num_vertices(); ++v) {
    const VertexLookup a = patched->LookupVertex(v);
    const VertexLookup b = rebuilt->LookupVertex(v);
    ASSERT_EQ(a.found, b.found) << "vertex " << v;
    ASSERT_EQ(a.replica_count, b.replica_count) << "vertex " << v;
    ASSERT_EQ(a.primary, b.primary) << "vertex " << v;
  }
}

TEST(PartitionServiceTest, PlacementsMatchFromScratchPartitioner) {
  // The service must be a pure serving shell: the placements it makes
  // and the snapshot it publishes must equal an IncrementalPartitioner
  // driven with the identical operation sequence, with no drift from
  // batching, publishing, or ledger bookkeeping.
  const auto edges = BaseGraph();
  PartitionService::Options options;
  options.publish_batch_edges = 64;
  options.rebootstrap_threshold = PartitionService::kNeverRebootstrap;
  PartitionService service(Config(16), options);
  {
    InMemoryEdgeStream stream(edges);
    ASSERT_TRUE(service.Bootstrap(stream).ok());
  }
  IncrementalPartitioner oracle(Config(16));
  {
    InMemoryEdgeStream stream(edges);
    CountingSink sink(16);
    ASSERT_TRUE(oracle.Bootstrap(stream, sink).ok());
  }

  SplitMix64 rng(11);
  std::vector<std::pair<Edge, PartitionId>> added;
  for (int i = 0; i < 800; ++i) {
    // Unique edges (fresh second endpoint), so removal order cannot
    // be ambiguous between the two drivers.
    const Edge e{static_cast<VertexId>(rng.NextBounded(kBaseVertices)),
                 kBaseVertices + static_cast<VertexId>(i)};
    const auto service_placed = service.AddEdge(e);
    const auto oracle_placed = oracle.AddEdge(e);
    ASSERT_TRUE(service_placed.ok());
    ASSERT_TRUE(oracle_placed.ok());
    ASSERT_EQ(*service_placed, *oracle_placed) << "add #" << i;
    added.push_back({e, *service_placed});
    if (i % 5 == 4) {
      const auto& [victim, partition] = added[added.size() - 3];
      const auto looked_up = service.LookupPlacement(victim);
      ASSERT_TRUE(looked_up.ok());
      ASSERT_EQ(*looked_up, partition);
      ASSERT_TRUE(service.RemoveEdge(victim).ok());
      ASSERT_TRUE(oracle.RemoveEdge(victim, partition).ok());
      added.erase(added.end() - 3);
    }
  }
  ASSERT_TRUE(service.Flush().ok());

  EXPECT_EQ(service.partitioner_for_test().num_edges(), oracle.num_edges());
  EXPECT_EQ(service.partitioner_for_test().loads(), oracle.loads());
  const auto snapshot = service.CurrentSnapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->live_edges(), oracle.num_edges());
  ExpectTableMatchesOracle(*snapshot, oracle, ProbeEdges(edges));
}

TEST(PartitionServiceTest, RebootstrapAdoptionPublishesFreshState) {
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  PartitionService::Options options;
  options.publish_batch_edges = 64;
  options.rebootstrap_threshold = 0.05;
  options.adopt_after_publishes = 2;
  PartitionService service(Config(16), options);
  ASSERT_TRUE(service.Bootstrap(stream).ok());

  SplitMix64 rng(13);
  for (int i = 0; i < 4000; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(kBaseVertices));
    VertexId v = static_cast<VertexId>(rng.NextBounded(kBaseVertices));
    if (u == v) {
      v = (v + 1) % kBaseVertices;
    }
    ASSERT_TRUE(service.AddEdge(Edge{u, v}).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  ASSERT_FALSE(service.RebootstrapInFlight());

  const PartitionService::Stats stats = service.GetStats();
  EXPECT_GE(stats.rebootstraps, 1u);
  // The adopted partitioner was re-bootstrapped recently; only the
  // post-fork replay still counts as drift.
  EXPECT_LT(stats.staleness_ratio, 0.05);
  // The published snapshot is exactly the adopted partitioner's state.
  const auto snapshot = service.CurrentSnapshot();
  const auto rebuilt =
      BuildServingTable(service.partitioner_for_test(), snapshot->epoch());
  EXPECT_EQ(snapshot->live_edges(), rebuilt->live_edges());
  EXPECT_EQ(snapshot->loads(), rebuilt->loads());
  ExpectTableMatchesOracle(*snapshot, service.partitioner_for_test(),
                           ProbeEdges(edges));
}

// The acceptance hammer: reader threads stream lookups through epoch
// swaps while the writer mutates and at least one full re-bootstrap
// forks, runs, and is adopted mid-traffic. Run under tsan this is the
// data-race proof for the pin/publish/reclaim protocol; the counters
// prove lookups really completed while a re-bootstrap was in flight.
TEST(PartitionServiceTest, LookupsSurviveConcurrentRebootstrap) {
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  PartitionService::Options options;
  options.publish_batch_edges = 32;
  options.rebootstrap_threshold = 0.02;
  // The writer blocks at the 4th publish after a fork until the job is
  // done, so readers run beside the whole job.
  options.adopt_after_publishes = 4;
  options.max_readers = 8;
  PartitionService service(Config(16), options);
  ASSERT_TRUE(service.Bootstrap(stream).ok());

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> lookups_during_rebootstrap{0};
  std::atomic<uint64_t> total_lookups{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&service, &stop, &lookups_during_rebootstrap,
                          &total_lookups, r] {
      auto reader = service.CreateReader();
      ASSERT_TRUE(reader.ok());
      SplitMix64 rng(1000 + static_cast<uint64_t>(r));
      uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const bool in_flight_before = service.RebootstrapInFlight();
        const VertexId v =
            static_cast<VertexId>(rng.NextBounded(kBaseVertices + 4096));
        const VertexLookup lookup = (*reader)->LookupVertex(v);
        const PartitionId route = (*reader)->RouteEdge(
            Edge{v, static_cast<VertexId>(rng.NextBounded(kBaseVertices))});
        ASSERT_LT(route, 16u);
        if (lookup.found) {
          ASSERT_GT(lookup.replica_count, 0u);
          ASSERT_LT(lookup.primary, 16u);
        }
        local += 2;
        // Published as it accrues, so the writer's loop can end.
        if (in_flight_before && service.RebootstrapInFlight()) {
          lookups_during_rebootstrap.fetch_add(2, std::memory_order_relaxed);
        }
      }
      total_lookups.fetch_add(local);
    });
  }

  // Mutate until kMinRebootstraps re-bootstraps have been adopted AND
  // the readers demonstrably overlapped one, with a generous op cap so
  // a logic bug fails the assertions below instead of hanging. The
  // 16th re-bootstrap is adopted after about 7,500 mutations.
  constexpr uint64_t kMinRebootstraps = 16;
  SplitMix64 rng(17);
  uint64_t mutations = 0;
  uint64_t rebootstraps = 0;
  while (mutations < 500'000 && (rebootstraps < kMinRebootstraps ||
                                 lookups_during_rebootstrap.load() == 0)) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(kBaseVertices));
    VertexId v = static_cast<VertexId>(rng.NextBounded(kBaseVertices));
    if (u == v) {
      v = (v + 1) % kBaseVertices;
    }
    ASSERT_TRUE(service.AddEdge(Edge{u, v}).ok());
    ++mutations;
    if (mutations % options.publish_batch_edges == 0) {  // adoptions land here
      rebootstraps = service.GetStats().rebootstraps;
    }
  }
  ASSERT_TRUE(service.Flush().ok());
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }

  EXPECT_GE(service.GetStats().rebootstraps, kMinRebootstraps);
  EXPECT_GT(total_lookups.load(), 0u);
  // Lookups completed while a re-bootstrap was in flight — the "never
  // drop reads during offline rebuilds" contract, observed directly.
  EXPECT_GT(lookups_during_rebootstrap.load(), 0u);
  EXPECT_GT(service.epoch(), 1u);
}

TEST(PartitionServiceTest, MutationHardeningAndReaderSlots) {
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  PartitionService::Options options;
  options.rebootstrap_threshold = PartitionService::kNeverRebootstrap;
  options.max_readers = 2;
  PartitionService service(Config(8), options);

  EXPECT_EQ(service.CreateReader().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.AddEdge(Edge{1, 2}).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(service.Bootstrap(stream).ok());

  EXPECT_EQ(service.AddEdge(Edge{5, 5}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.AddEdge(Edge{kInvalidVertex, 3}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.RemoveEdge(Edge{kBaseVertices + 7, kBaseVertices + 8})
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.LookupPlacement(Edge{kBaseVertices + 7, kBaseVertices + 8})
                .status()
                .code(),
            StatusCode::kNotFound);

  // An add/remove round-trip leaves no live occurrence behind.
  const Edge fresh{1, kBaseVertices + 1};
  ASSERT_TRUE(service.AddEdge(fresh).ok());
  ASSERT_TRUE(service.RemoveEdge(fresh).ok());
  EXPECT_EQ(service.RemoveEdge(fresh).code(), StatusCode::kNotFound);

  auto r1 = service.CreateReader();
  auto r2 = service.CreateReader();
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(service.CreateReader().status().code(), StatusCode::kOutOfRange);
  r1->reset();  // releasing a slot makes it reusable
  EXPECT_TRUE(service.CreateReader().ok());
}

/// Records each edge's placements in order, as the service's ledger
/// stacks them.
class PlacementRecorder : public AssignmentSink {
 public:
  void Assign(const Edge& edge, PartitionId partition) override {
    placements[edge].push_back(partition);
  }
  LedgerOracle placements;
};

/// Two 4-cliques. At k=2 and alpha=1 they bootstrap to loads 7/5, so
/// repeated adds of one edge overflow and alternate partitions.
std::vector<Edge> TwoCliques() {
  std::vector<Edge> base;
  for (const VertexId offset : {0u, 4u}) {
    for (VertexId u = 0; u < 4; ++u) {
      for (VertexId v = u + 1; v < 4; ++v) {
        base.push_back(Edge{offset + u, offset + v});
      }
    }
  }
  return base;
}

TEST(PartitionServiceTest, DuplicateEdgesRemoveLifoAndCompactEarliestFirst) {
  const std::vector<Edge> base = TwoCliques();
  PartitionConfig config = Config(2);
  config.balance_factor = 1.0;
  PartitionService::Options options;
  options.publish_batch_edges = 1 << 20;  // publish only on Flush()
  options.rebootstrap_threshold = 0.0;    // the first publish forks
  PartitionService service(config, options);
  {
    InMemoryEdgeStream stream(base);
    ASSERT_TRUE(service.Bootstrap(stream).ok());
  }

  // `dup` is a base edge; three more adds stack on its bootstrap
  // placement. Then four removals, a filler and a fifth dup.
  const Edge dup{0, 1};
  const Edge filler{4, 5};
  std::vector<Edge> log = base;
  std::vector<PartitionId> placed;
  const auto bootstrapped = service.LookupPlacement(dup);
  ASSERT_TRUE(bootstrapped.ok());
  placed.push_back(*bootstrapped);
  for (int i = 0; i < 3; ++i) {
    const auto p = service.AddEdge(dup);
    ASSERT_TRUE(p.ok());
    placed.push_back(*p);
    log.push_back(dup);
  }
  ASSERT_FALSE(placed[1] == placed[2] && placed[2] == placed[3])
      << "precondition: the added dups must not all share a partition";

  // Removal and lookup both see the most recent occurrence, LIFO, until
  // none is left.
  for (int i = 3; i >= 0; --i) {
    const auto looked_up = service.LookupPlacement(dup);
    ASSERT_TRUE(looked_up.ok());
    EXPECT_EQ(*looked_up, placed[i]) << "occurrence " << i;
    ASSERT_TRUE(service.RemoveEdge(dup).ok());
  }
  EXPECT_EQ(service.LookupPlacement(dup).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.RemoveEdge(dup).code(), StatusCode::kNotFound);
  ASSERT_TRUE(service.AddEdge(filler).ok());
  log.push_back(filler);
  ASSERT_TRUE(service.AddEdge(dup).ok());
  log.push_back(dup);

  // The fork compacts the log by skipping the earliest occurrences of
  // each removed edge: the four removals drop the base dup and the
  // three added after it, and keep the fifth, after the filler.
  std::vector<Edge> compacted;
  int dups_to_skip = 4;
  for (const Edge& e : log) {
    if (e == dup && dups_to_skip > 0) {
      --dups_to_skip;
      continue;
    }
    compacted.push_back(e);
  }
  ASSERT_EQ(compacted.size(), base.size() + 1);
  ASSERT_EQ(compacted.back(), dup);

  ASSERT_TRUE(service.Flush().ok());  // publishes and forks
  ASSERT_TRUE(service.RebootstrapInFlight());
  ASSERT_TRUE(service.Flush().ok());  // waits for and adopts the fork
  ASSERT_FALSE(service.RebootstrapInFlight());
  ASSERT_EQ(service.GetStats().rebootstraps, 1u);

  IncrementalPartitioner oracle(config);
  PlacementRecorder recorder;
  {
    InMemoryEdgeStream stream(compacted);
    ASSERT_TRUE(oracle.Bootstrap(stream, recorder).ok());
  }
  const IncrementalPartitioner& adopted = service.partitioner_for_test();
  EXPECT_EQ(adopted.num_edges(), oracle.num_edges());
  EXPECT_EQ(adopted.loads(), oracle.loads());
  for (const auto& [edge, partitions] : recorder.placements) {
    const auto looked_up = service.LookupPlacement(edge);
    ASSERT_TRUE(looked_up.ok());
    EXPECT_EQ(*looked_up, partitions.back())
        << "edge (" << edge.first << "," << edge.second << ")";
  }
  const auto snapshot = service.CurrentSnapshot();
  ASSERT_NE(snapshot, nullptr);
  ExpectTableMatchesOracle(*snapshot, oracle, compacted);
}

/// Bootstraps an oracle partitioner over `log` and returns its loads
/// and each edge's placements in log order.
std::pair<std::vector<uint64_t>, LedgerOracle> OracleOver(
    const PartitionConfig& config, const std::vector<Edge>& log) {
  IncrementalPartitioner oracle(config);
  PlacementRecorder recorder;
  InMemoryEdgeStream stream(log);
  EXPECT_TRUE(oracle.Bootstrap(stream, recorder).ok());
  return {oracle.loads(), std::move(recorder.placements)};
}

TEST(PartitionServiceTest, InterleavedDuplicateRemovalCompactsEarliestFirst) {
  // add d, add d, remove d, add d, with fillers in between: the removal
  // frees the 2nd occurrence's partition (LIFO) but compaction drops the
  // 1st occurrence (earliest first), so the 2nd and 3rd stay in the log
  // and the 1st one's partition lives on at the 2nd one's position.
  const std::vector<Edge> base = TwoCliques();
  PartitionConfig config = Config(2);
  config.balance_factor = 1.0;
  PartitionService::Options options;
  options.publish_batch_edges = 1 << 20;  // publish only on Flush()
  options.rebootstrap_threshold = 0.0;    // the first publish forks
  PartitionService service(config, options);
  {
    InMemoryEdgeStream stream(base);
    ASSERT_TRUE(service.Bootstrap(stream).ok());
  }
  // Cross-clique edges, picked so the preconditions below hold.
  const Edge d{0, 5};
  const Edge fillers[] = {Edge{3, 6}, Edge{1, 6}, Edge{2, 6}};
  std::vector<PartitionId> placed;
  for (const Edge& e : {d, fillers[0], d}) {
    const auto p = service.AddEdge(e);
    ASSERT_TRUE(p.ok());
    if (e == d) {
      placed.push_back(*p);
    }
  }
  ASSERT_NE(placed[0], placed[1])
      << "precondition: the two dups must not share a partition";
  ASSERT_TRUE(service.RemoveEdge(d).ok());
  const auto after_removal = service.LookupPlacement(d);
  ASSERT_TRUE(after_removal.ok());
  EXPECT_EQ(*after_removal, placed[0]) << "removal must be LIFO";
  for (const Edge& e : {fillers[1], d, fillers[2]}) {
    ASSERT_TRUE(service.AddEdge(e).ok());
  }

  std::vector<Edge> compacted = base;  // earliest-first: drops the 1st d
  for (const Edge& e : {fillers[0], d, fillers[1], d, fillers[2]}) {
    compacted.push_back(e);
  }
  std::vector<Edge> lifo_compacted = base;  // drops the 2nd d instead
  for (const Edge& e : {d, fillers[0], fillers[1], d, fillers[2]}) {
    lifo_compacted.push_back(e);
  }
  const auto [loads, placements] = OracleOver(config, compacted);
  const auto [lifo_loads, lifo_placements] = OracleOver(config, lifo_compacted);
  ASSERT_TRUE(loads != lifo_loads || placements != lifo_placements)
      << "precondition: the two compaction rules must be distinguishable";

  ASSERT_TRUE(service.Flush().ok());  // publishes and forks
  ASSERT_TRUE(service.RebootstrapInFlight());
  // While the job runs, add d once more and remove it twice. Adoption
  // replays each removal along the positions it touched.
  ASSERT_TRUE(service.AddEdge(d).ok());
  ASSERT_TRUE(service.RemoveEdge(d).ok());
  ASSERT_TRUE(service.RemoveEdge(d).ok());
  ASSERT_TRUE(service.Flush().ok());  // waits for and adopts the fork
  ASSERT_EQ(service.GetStats().rebootstraps, 1u);

  // The oracle: a bootstrap over the compacted log, then the same
  // interim mutations with a LIFO stack per edge.
  IncrementalPartitioner oracle(config);
  PlacementRecorder recorder;
  {
    InMemoryEdgeStream stream(compacted);
    ASSERT_TRUE(oracle.Bootstrap(stream, recorder).ok());
  }
  std::vector<PartitionId>& d_stack = recorder.placements[d];
  ASSERT_EQ(d_stack.size(), 2u);
  const auto interim = oracle.AddEdge(d);
  ASSERT_TRUE(interim.ok());
  d_stack.push_back(*interim);
  ASSERT_FALSE(d_stack[0] == d_stack[1] && d_stack[1] == d_stack[2])
      << "precondition: d's live occurrences must not share a partition";
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(oracle.RemoveEdge(d, d_stack.back()).ok());
    d_stack.pop_back();
  }
  EXPECT_EQ(service.partitioner_for_test().num_edges(), oracle.num_edges());
  EXPECT_EQ(service.partitioner_for_test().loads(), oracle.loads());
  for (const auto& [edge, partitions] : recorder.placements) {
    const auto looked_up = service.LookupPlacement(edge);
    ASSERT_TRUE(looked_up.ok());
    EXPECT_EQ(*looked_up, partitions.back())
        << "edge (" << edge.first << "," << edge.second << ")";
  }
  ASSERT_TRUE(service.RemoveEdge(d).ok());
  EXPECT_EQ(service.RemoveEdge(d).code(), StatusCode::kNotFound);
}

TEST(PartitionServiceTest, RandomChurnAcrossRebootstraps) {
  SocialNetworkConfig graph;
  graph.num_vertices = 256;
  graph.clique_size = 6;
  graph.seed = 5;
  const std::vector<Edge> base = GenerateSocialNetwork(graph);
  for (const uint32_t adopt_after : {1u, 2u, 3u}) {
    PartitionService::Options options;
    options.publish_batch_edges = 7;
    options.rebootstrap_threshold = 0.05;
    options.adopt_after_publishes = adopt_after;
    PartitionService service(Config(4), options);
    {
      InMemoryEdgeStream stream(base);
      ASSERT_TRUE(service.Bootstrap(stream).ok());
    }
    // The model: one entry per live occurrence.
    std::vector<Edge> live = base;
    const auto expect_model = [&](const char* when) {
      ASSERT_TRUE(service.Flush().ok()) << when;
      EXPECT_EQ(service.GetStats().live_edges, live.size()) << when;
      for (const Edge& e : live) {
        ASSERT_TRUE(service.LookupPlacement(e).ok())
            << when << ": edge (" << e.first << "," << e.second << ")";
      }
    };
    SplitMix64 rng(adopt_after);
    for (int op = 1; op <= 4000; ++op) {
      const uint64_t dice = rng.NextBounded(100);
      if (dice < 40 && !live.empty()) {
        const size_t pick = rng.NextBounded(live.size());
        ASSERT_TRUE(service.RemoveEdge(live[pick]).ok()) << "op " << op;
        live[pick] = live.back();
        live.pop_back();
      } else if (dice < 65 && !live.empty()) {
        const Edge dup = live[rng.NextBounded(live.size())];
        ASSERT_TRUE(service.AddEdge(dup).ok()) << "op " << op;
        live.push_back(dup);
      } else {
        const VertexId u = static_cast<VertexId>(rng.NextBounded(320));
        const VertexId v = static_cast<VertexId>(rng.NextBounded(320));
        if (u != v) {
          ASSERT_TRUE(service.AddEdge(Edge{u, v}).ok()) << "op " << op;
          live.push_back(Edge{u, v});
        }
      }
      if (op % 400 == 0) {
        expect_model("churn");
      }
    }
    EXPECT_GE(service.GetStats().rebootstraps, 3u)
        << "adopt_after=" << adopt_after;
    // Draining leaves mostly dead log entries, so adoptions renumber.
    while (!live.empty()) {
      ASSERT_TRUE(service.RemoveEdge(live.back()).ok());
      live.pop_back();
      if (live.size() % 500 == 0) {
        expect_model("drain");
      }
    }
    const PartitionService::Stats stats = service.GetStats();
    EXPECT_EQ(stats.live_edges, 0u);
    EXPECT_EQ(stats.max_load, 0u);
    EXPECT_FALSE(HasFailure()) << "adopt_after=" << adopt_after;
  }
}

TEST(PartitionServiceTest, RebootstrapRecordsForkWaitAndRunTimes) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const char* const kHistograms[] = {"serve.fork_seconds",
                                     "serve.adopt_wait_seconds",
                                     "serve.rebootstrap_seconds"};
  std::vector<uint64_t> before;
  for (const char* name : kHistograms) {
    before.push_back(registry.GetHistogram(name)->Summarize().count);
  }
  const auto edges = BaseGraph();
  PartitionService::Options options;
  options.publish_batch_edges = 1;
  options.rebootstrap_threshold = 0.0;  // the first publish forks
  options.adopt_after_publishes = 1;    // and the next one adopts
  PartitionService service(Config(8), options);
  {
    InMemoryEdgeStream stream(edges);
    ASSERT_TRUE(service.Bootstrap(stream).ok());
  }
  ASSERT_TRUE(service.AddEdge(Edge{1, kBaseVertices + 1}).ok());
  ASSERT_TRUE(service.RebootstrapInFlight());
  ASSERT_TRUE(service.AddEdge(Edge{2, kBaseVertices + 2}).ok());
  ASSERT_FALSE(service.RebootstrapInFlight());
  ASSERT_EQ(service.GetStats().rebootstraps, 1u);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(registry.GetHistogram(kHistograms[i])->Summarize().count,
              before[i] + 1)
        << kHistograms[i];
  }
}

TEST(PartitionServiceTest, AdoptAfterZeroPublishesAdoptsAtTheFirstPublish) {
  // 0 is read as 1: the publish after the fork adopts, waiting for the
  // job if it still runs, whatever the job's timing.
  const auto edges = BaseGraph();
  PartitionService::Options options;
  options.publish_batch_edges = 1;
  options.rebootstrap_threshold = 0.0;  // the first publish forks
  options.adopt_after_publishes = 0;
  PartitionService service(Config(8), options);
  {
    InMemoryEdgeStream stream(edges);
    ASSERT_TRUE(service.Bootstrap(stream).ok());
  }
  ASSERT_TRUE(service.AddEdge(Edge{1, kBaseVertices + 1}).ok());
  ASSERT_TRUE(service.RebootstrapInFlight());
  ASSERT_TRUE(service.AddEdge(Edge{2, kBaseVertices + 2}).ok());
  EXPECT_FALSE(service.RebootstrapInFlight());
  EXPECT_EQ(service.GetStats().rebootstraps, 1u);
}

TEST(IncrementalStalenessTest, RemovalsCountAsDrift) {
  const auto edges = BaseGraph();
  InMemoryEdgeStream stream(edges);
  IncrementalPartitioner partitioner(Config(8));
  CountingSink sink(8);
  ASSERT_TRUE(partitioner.Bootstrap(stream, sink).ok());
  ASSERT_DOUBLE_EQ(partitioner.StalenessRatio(), 0.0);

  // 300 adds then 300 removals of those same edges: the live edge
  // count is back at baseline, but the structures have absorbed 600
  // ops of churn — exactly what the ratio must report.
  std::vector<std::pair<Edge, PartitionId>> added;
  for (int i = 0; i < 300; ++i) {
    const Edge e{static_cast<VertexId>(i % kBaseVertices),
                 kBaseVertices + static_cast<VertexId>(i)};
    const auto placed = partitioner.AddEdge(e);
    ASSERT_TRUE(placed.ok());
    added.push_back({e, *placed});
  }
  for (const auto& [e, p] : added) {
    ASSERT_TRUE(partitioner.RemoveEdge(e, p).ok());
  }
  EXPECT_EQ(partitioner.num_edges(), edges.size());
  EXPECT_DOUBLE_EQ(partitioner.StalenessRatio(),
                   600.0 / static_cast<double>(edges.size()));
}

TEST(TrafficTest, DeterministicPlacementSideResults) {
  SocialNetworkConfig config;
  config.num_vertices = 1 << 10;
  config.clique_size = 8;
  config.seed = 3;
  const auto edges = GenerateSocialNetwork(config);

  TrafficOptions traffic;
  traffic.config = Config(8);
  traffic.readers = 2;
  traffic.lookups_per_reader = 2048;
  traffic.mutation_fraction = 0.2;
  traffic.removal_interval = 8;
  traffic.service.publish_batch_edges = 64;
  traffic.service.rebootstrap_threshold = 0.05;
  traffic.service.adopt_after_publishes = 2;

  const auto first = RunTraffic(edges, traffic);
  const auto second = RunTraffic(edges, traffic);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_GT(first->adds, 0u);
  EXPECT_GT(first->removals, 0u);
  EXPECT_GE(first->rebootstraps, 1u);
  EXPECT_GT(first->live_edges, 0u);
  EXPECT_GT(first->epochs_published, 1u);
  EXPECT_TRUE(std::isfinite(first->replication_factor));
  EXPECT_GE(first->replication_factor, 1.0);
  EXPECT_TRUE(std::isfinite(first->measured_alpha));
  EXPECT_GT(first->measured_alpha, 0.0);
  EXPECT_GT(first->state_bytes, 0u);
  EXPECT_EQ(first->lookups,
            static_cast<uint64_t>(traffic.readers) *
                traffic.lookups_per_reader);
  EXPECT_EQ(first->adds, second->adds);
  EXPECT_EQ(first->removals, second->removals);
  EXPECT_EQ(first->live_edges, second->live_edges);
  EXPECT_EQ(first->epochs_published, second->epochs_published);
  EXPECT_EQ(first->rebootstraps, second->rebootstraps);
  EXPECT_EQ(first->replication_factor, second->replication_factor);
  EXPECT_EQ(first->measured_alpha, second->measured_alpha);
  EXPECT_EQ(first->state_bytes, second->state_bytes);
}

/// The obs snapshot in a serve record belongs to one repeat: the
/// lookup counter of a three-repeat run equals the lookups one repeat
/// issued, not three times that.
TEST(ServeScenarioTest, ObsMetricsAreScopedToTheReportedRepeat) {
  benchkit::Scenario scenario;
  scenario.name = "tiny_serve";
  scenario.partitioner = "PartitionService";
  scenario.dataset = "OK";
  scenario.k = 8;
  scenario.seed = 42;
  scenario.kind = benchkit::ScenarioKind::kServe;
  benchkit::RunScenarioOptions options;
  options.extra_scale_shift = 6;
  options.repeats = 3;
  auto record = RunServeScenario(scenario, options);
  ASSERT_TRUE(record.ok()) << record.status();
  const double* lookups = record->FindMetric("lookups");
  const double* counted = record->FindMetric("obs/serve.lookups");
  ASSERT_NE(lookups, nullptr);
  ASSERT_NE(counted, nullptr);
  EXPECT_GT(*lookups, 0.0);
  EXPECT_EQ(*counted, *lookups);
}

}  // namespace
}  // namespace serve
}  // namespace tpsl
