// Registry-wide byte-identity oracle for the partitioner-state kernel.
//
// The golden table below was captured from the pre-refactor tree (the
// commit before every scoring loop moved onto ScoreTables /
// DenseBitset): an FNV-1a 64 digest of the exact (u, v, partition)
// assignment stream of every registry partitioner, at threads=1,
// across three graph families and three partition counts. The refactor
// contract is that these digests never move — same edges, same order,
// same partitions, byte for byte. A mismatch here means the kernel
// changed an iteration order, a tie-break, or a score formula, which
// is a correctness bug even when quality metrics look unchanged.
//
// To re-pin after an INTENTIONAL assignment change: rebuild the table
// with the loop below printing digests (family, k, name fixed), and
// say so loudly in the PR — this table moving is the whole point of
// the test.
#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "core/two_phase_partitioner.h"
#include "dynamic/incremental_partitioner.h"
#include "exec/exec_context.h"
#include "exec/thread_pool.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "graph/types.h"
#include "gtest/gtest.h"
#include "partition/partitioner.h"

namespace tpsl {
namespace {

/// FNV-1a 64 over the raw assignment stream, identical to the capture
/// harness (offset 0xcbf29ce484222325, prime 0x100000001b3, bytes of
/// u, v, p in stream order).
class ChecksumSink : public AssignmentSink {
 public:
  void Assign(const Edge& edge, PartitionId partition) override {
    Fold(&edge.first, sizeof(edge.first));
    Fold(&edge.second, sizeof(edge.second));
    Fold(&partition, sizeof(partition));
  }
  uint64_t digest() const { return state_; }

 private:
  void Fold(const void* data, size_t bytes) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      state_ ^= p[i];
      state_ *= 0x100000001b3ULL;
    }
  }
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// The three graph families of the oracle grid: an R-MAT social-style
/// graph (skewed degrees), a planted-partition community graph, and a
/// uniform Erdős–Rényi graph. Generators are seeded, so the edge
/// streams are bit-identical to the capture run.
std::vector<Edge> MakeFamily(const std::string& family) {
  if (family == "social") {
    RmatConfig config;
    config.scale = 11;
    config.edge_factor = 8;
    return GenerateRmat(config);
  }
  if (family == "community") {
    PlantedPartitionConfig config;
    config.num_vertices = 2048;
    config.num_edges = 16000;
    config.num_communities = 32;
    return GeneratePlantedPartition(config);
  }
  ErdosRenyiConfig config;
  config.num_vertices = 2048;
  config.num_edges = 16000;
  return GenerateErdosRenyi(config);
}

struct GoldenRow {
  const char* partitioner;
  const char* family;
  uint32_t k;
  uint64_t digest;
};

// Captured at the pre-refactor seed (threads=1, default
// PartitionConfig otherwise). 17 partitioners × 3 families × 3 k.
const GoldenRow kGoldenRows[] = {
    {"2PS-L", "social", 2, 0x9cb24bdf78b48c37ULL},
    {"2PS-L", "social", 5, 0xc42e7f7e84f0cfefULL},
    {"2PS-L", "social", 32, 0x7535ab33db6b8717ULL},
    {"2PS-HDRF", "social", 2, 0x98da071c1c690a3bULL},
    {"2PS-HDRF", "social", 5, 0xb8a35d37f173871bULL},
    {"2PS-HDRF", "social", 32, 0xcb13a0a60e33f370ULL},
    {"2PS-L(par)", "social", 2, 0x9cb24bdf78b48c37ULL},
    {"2PS-L(par)", "social", 5, 0xc42e7f7e84f0cfefULL},
    {"2PS-L(par)", "social", 32, 0x7535ab33db6b8717ULL},
    {"2PS-HDRF(par)", "social", 2, 0x98da071c1c690a3bULL},
    {"2PS-HDRF(par)", "social", 5, 0xb8a35d37f173871bULL},
    {"2PS-HDRF(par)", "social", 32, 0xcb13a0a60e33f370ULL},
    {"HDRF", "social", 2, 0xa7ea1be94ae7a613ULL},
    {"HDRF", "social", 5, 0x3a15aea084ba3025ULL},
    {"HDRF", "social", 32, 0x0e253983d8b7a718ULL},
    {"DBH", "social", 2, 0x021525828f93b497ULL},
    {"DBH", "social", 5, 0xe87579194101ae16ULL},
    {"DBH", "social", 32, 0x5b708a891de8fa21ULL},
    {"Grid", "social", 2, 0x0686cdba17e4f6e6ULL},
    {"Grid", "social", 5, 0x472bbe7c96f5c968ULL},
    {"Grid", "social", 32, 0x9f46df806fe27a0bULL},
    {"Hash", "social", 2, 0x532c944922df5ce2ULL},
    {"Hash", "social", 5, 0x67d765a195b25f00ULL},
    {"Hash", "social", 32, 0xcb261fbc05cf175cULL},
    {"Greedy", "social", 2, 0x5b204ec2bd2f029bULL},
    {"Greedy", "social", 5, 0xb3f0c0b11b7b4a8bULL},
    {"Greedy", "social", 32, 0x79f2407031bfd357ULL},
    {"ADWISE", "social", 2, 0x81f7aebb4d488c9fULL},
    {"ADWISE", "social", 5, 0xe60f39172ee24738ULL},
    {"ADWISE", "social", 32, 0x9eaeaba14c0ee9deULL},
    {"NE", "social", 2, 0xa6dff1baeeb0410bULL},
    {"NE", "social", 5, 0xc7a17365864fc1c7ULL},
    {"NE", "social", 32, 0x235f1e2949855be8ULL},
    {"SNE", "social", 2, 0xf7d1c8af97333507ULL},
    {"SNE", "social", 5, 0xd153b005af72713bULL},
    {"SNE", "social", 32, 0x23e9554ae825d9bbULL},
    {"DNE", "social", 2, 0xdf6c61a4f6e1bc9fULL},
    {"DNE", "social", 5, 0x27b19571497bf0f7ULL},
    {"DNE", "social", 32, 0xe0776f1f1e58ccc4ULL},
    {"HEP-1", "social", 2, 0x79ad24099724f30fULL},
    {"HEP-1", "social", 5, 0x6ba150bbe4210803ULL},
    {"HEP-1", "social", 32, 0x8105d265a89a94f0ULL},
    {"HEP-10", "social", 2, 0xe4227431cfc9082fULL},
    {"HEP-10", "social", 5, 0x9fdf978a8b6f2f67ULL},
    {"HEP-10", "social", 32, 0x3e15712efaf9b640ULL},
    {"HEP-100", "social", 2, 0xa6dff1baeeb0410bULL},
    {"HEP-100", "social", 5, 0xc7a17365864fc1c7ULL},
    {"HEP-100", "social", 32, 0x235f1e2949855be8ULL},
    {"METIS*", "social", 2, 0x211bcd973eb09cb2ULL},
    {"METIS*", "social", 5, 0x5e36d9b9efffbbbfULL},
    {"METIS*", "social", 32, 0xb8977e18b23d2725ULL},
    {"2PS-L", "community", 2, 0xe747a3be17b1209cULL},
    {"2PS-L", "community", 5, 0x1781d62fc049f4cdULL},
    {"2PS-L", "community", 32, 0x9e1ebf92fca015c3ULL},
    {"2PS-HDRF", "community", 2, 0xdbb91a8c048c5361ULL},
    {"2PS-HDRF", "community", 5, 0xc92690bc73909a4eULL},
    {"2PS-HDRF", "community", 32, 0x412ec61f33b70979ULL},
    {"2PS-L(par)", "community", 2, 0xe747a3be17b1209cULL},
    {"2PS-L(par)", "community", 5, 0x1781d62fc049f4cdULL},
    {"2PS-L(par)", "community", 32, 0x9e1ebf92fca015c3ULL},
    {"2PS-HDRF(par)", "community", 2, 0xdbb91a8c048c5361ULL},
    {"2PS-HDRF(par)", "community", 5, 0xc92690bc73909a4eULL},
    {"2PS-HDRF(par)", "community", 32, 0x412ec61f33b70979ULL},
    {"HDRF", "community", 2, 0x9226fa6672c67dbdULL},
    {"HDRF", "community", 5, 0x7d1c6c789a0da1d7ULL},
    {"HDRF", "community", 32, 0x705b11e1492b19b2ULL},
    {"DBH", "community", 2, 0x5013a9341fdb9281ULL},
    {"DBH", "community", 5, 0xf40ee0d87761eabaULL},
    {"DBH", "community", 32, 0xd1a688835a9f240fULL},
    {"Grid", "community", 2, 0xf68e5863af473779ULL},
    {"Grid", "community", 5, 0xe17dd40943e55bd0ULL},
    {"Grid", "community", 32, 0x4190ac74d5bf2d20ULL},
    {"Hash", "community", 2, 0x9e75f1516fa8422cULL},
    {"Hash", "community", 5, 0x879aa0d36ec786b9ULL},
    {"Hash", "community", 32, 0xf30308a65197ae56ULL},
    {"Greedy", "community", 2, 0x7344b6b1145c5f21ULL},
    {"Greedy", "community", 5, 0x307d7bcc96e796caULL},
    {"Greedy", "community", 32, 0x0be215b62ff5b9d9ULL},
    {"ADWISE", "community", 2, 0x2afcbc0a3c0dc325ULL},
    {"ADWISE", "community", 5, 0x0d88698e30eb959cULL},
    {"ADWISE", "community", 32, 0xa5440bae36b999b5ULL},
    {"NE", "community", 2, 0xc6565f764d388e55ULL},
    {"NE", "community", 5, 0x413923304e6984f9ULL},
    {"NE", "community", 32, 0xaf08135c817dc571ULL},
    {"SNE", "community", 2, 0x019ce9f8a0bfbd61ULL},
    {"SNE", "community", 5, 0x321ede1906e5bf90ULL},
    {"SNE", "community", 32, 0xe8ba445364928ce5ULL},
    {"DNE", "community", 2, 0x59f43977ed9824b5ULL},
    {"DNE", "community", 5, 0x156beed122360b15ULL},
    {"DNE", "community", 32, 0xfab13443fcc47089ULL},
    {"HEP-1", "community", 2, 0xbf83b4cebc108904ULL},
    {"HEP-1", "community", 5, 0x33f6e24344cab087ULL},
    {"HEP-1", "community", 32, 0x3b7a0344222f3594ULL},
    {"HEP-10", "community", 2, 0xc6565f764d388e55ULL},
    {"HEP-10", "community", 5, 0x413923304e6984f9ULL},
    {"HEP-10", "community", 32, 0xaf08135c817dc571ULL},
    {"HEP-100", "community", 2, 0xc6565f764d388e55ULL},
    {"HEP-100", "community", 5, 0x413923304e6984f9ULL},
    {"HEP-100", "community", 32, 0xaf08135c817dc571ULL},
    {"METIS*", "community", 2, 0x9573ca3b71ad776dULL},
    {"METIS*", "community", 5, 0x7a5a524a07fe427dULL},
    {"METIS*", "community", 32, 0xd68f14ea591ea20fULL},
    {"2PS-L", "uniform", 2, 0xb2d0ac628d33b56fULL},
    {"2PS-L", "uniform", 5, 0x2feeae7a9f38c77fULL},
    {"2PS-L", "uniform", 32, 0x0e6492a26f946694ULL},
    {"2PS-HDRF", "uniform", 2, 0x6e6a28278dd874ebULL},
    {"2PS-HDRF", "uniform", 5, 0x023a7bf31215c714ULL},
    {"2PS-HDRF", "uniform", 32, 0x5566ff5b311d6d49ULL},
    {"2PS-L(par)", "uniform", 2, 0xb2d0ac628d33b56fULL},
    {"2PS-L(par)", "uniform", 5, 0x2feeae7a9f38c77fULL},
    {"2PS-L(par)", "uniform", 32, 0x0e6492a26f946694ULL},
    {"2PS-HDRF(par)", "uniform", 2, 0x6e6a28278dd874ebULL},
    {"2PS-HDRF(par)", "uniform", 5, 0x023a7bf31215c714ULL},
    {"2PS-HDRF(par)", "uniform", 32, 0x5566ff5b311d6d49ULL},
    {"HDRF", "uniform", 2, 0x9bb1b37cd6d6798bULL},
    {"HDRF", "uniform", 5, 0xd572996b8c272e3cULL},
    {"HDRF", "uniform", 32, 0x9e43f9792d2fb1d0ULL},
    {"DBH", "uniform", 2, 0x0f69d86739250b46ULL},
    {"DBH", "uniform", 5, 0x0fa1588232d8afffULL},
    {"DBH", "uniform", 32, 0x69eba1457f980426ULL},
    {"Grid", "uniform", 2, 0x75358918045eed06ULL},
    {"Grid", "uniform", 5, 0xeea36d8c10892aa4ULL},
    {"Grid", "uniform", 32, 0x0c372b2955afa0d3ULL},
    {"Hash", "uniform", 2, 0x8229660fd9180112ULL},
    {"Hash", "uniform", 5, 0xe07c4b4cd32b6289ULL},
    {"Hash", "uniform", 32, 0x3893fec2d33ddeaaULL},
    {"Greedy", "uniform", 2, 0x4c87cfde98b80c2bULL},
    {"Greedy", "uniform", 5, 0x4e211b93d2afb343ULL},
    {"Greedy", "uniform", 32, 0xe726e3b34b27ea18ULL},
    {"ADWISE", "uniform", 2, 0x0ab357fb917486beULL},
    {"ADWISE", "uniform", 5, 0xc2418c248dc876c7ULL},
    {"ADWISE", "uniform", 32, 0xba73b5da6710a8edULL},
    {"NE", "uniform", 2, 0x37e1ed483d561b27ULL},
    {"NE", "uniform", 5, 0xdf16f62e7a5c8f83ULL},
    {"NE", "uniform", 32, 0xc9aebdb1e4bbb1bfULL},
    {"SNE", "uniform", 2, 0xbbf0619b9453d4c7ULL},
    {"SNE", "uniform", 5, 0x93f8a427989ebbfeULL},
    {"SNE", "uniform", 32, 0x35a57c8a99903d4fULL},
    {"DNE", "uniform", 2, 0x9a953fcea6ba5d93ULL},
    {"DNE", "uniform", 5, 0xf0c4922af0364ddfULL},
    {"DNE", "uniform", 32, 0xf847b3722d8ac277ULL},
    {"HEP-1", "uniform", 2, 0x432a82928a854cbfULL},
    {"HEP-1", "uniform", 5, 0xd6dbde465d97d604ULL},
    {"HEP-1", "uniform", 32, 0xd6011261b8aee3adULL},
    {"HEP-10", "uniform", 2, 0x37e1ed483d561b27ULL},
    {"HEP-10", "uniform", 5, 0xdf16f62e7a5c8f83ULL},
    {"HEP-10", "uniform", 32, 0xc9aebdb1e4bbb1bfULL},
    {"HEP-100", "uniform", 2, 0x37e1ed483d561b27ULL},
    {"HEP-100", "uniform", 5, 0xdf16f62e7a5c8f83ULL},
    {"HEP-100", "uniform", 32, 0xc9aebdb1e4bbb1bfULL},
    {"METIS*", "uniform", 2, 0xc0dfaeb8a402f7abULL},
    {"METIS*", "uniform", 5, 0xb78eb0c24bcce56bULL},
    {"METIS*", "uniform", 32, 0xc18eb4d0a6ba261aULL},
};

/// 2PS-L ablation options no registry name reaches: round-robin
/// cluster scheduling and the score without the cluster-volume term.
/// Captured from the sequential implementation before 2PS-L was folded
/// onto the execution engine (threads=1, default PartitionConfig
/// otherwise).
struct OptionRow {
  const char* option;
  const char* family;
  uint32_t k;
  uint64_t digest;
};

const OptionRow kOptionRows[] = {
    {"round-robin", "social", 2, 0xd93c189ec938eaaeULL},
    {"round-robin", "social", 5, 0x1ee1412929cccf88ULL},
    {"round-robin", "social", 32, 0xbccc27245c812376ULL},
    {"no-volume-term", "social", 2, 0x45761462f95e8156ULL},
    {"no-volume-term", "social", 5, 0x1dc2ddce43372652ULL},
    {"no-volume-term", "social", 32, 0x9b81a10b8a3ede46ULL},
    {"round-robin", "community", 2, 0xc74fec5e2f2661f5ULL},
    {"round-robin", "community", 5, 0x3940be62aaf98e31ULL},
    {"round-robin", "community", 32, 0x4fd62edc2b61f108ULL},
    {"no-volume-term", "community", 2, 0x7f96c4faadf4070cULL},
    {"no-volume-term", "community", 5, 0x6f0e9a48f9ef0780ULL},
    {"no-volume-term", "community", 32, 0x13cdb29c1c10e445ULL},
    {"round-robin", "uniform", 2, 0x4ac641c905ad3443ULL},
    {"round-robin", "uniform", 5, 0xe9060a66ebf6a720ULL},
    {"round-robin", "uniform", 32, 0x4a4001f43e42dcf9ULL},
    {"no-volume-term", "uniform", 2, 0x7cd87ae2e0a9b02bULL},
    {"no-volume-term", "uniform", 5, 0x2cb825bc41f1a080ULL},
    {"no-volume-term", "uniform", 32, 0x1ec58a0f4e110dddULL},
};

/// IncrementalPartitioner placements: Bootstrap on the first 90% of a
/// family, then AddEdge the rest in stream order. Every third added edge
/// points its second endpoint at a vertex the bootstrap never saw, and
/// every seventh its first one too, so the state grows and new clusters
/// are founded. The digest folds the bootstrap's assignment stream, then
/// each AddEdge placement. Captured before the 2PS-L score and the
/// replica matrix were shared with the batch partitioner (default
/// PartitionConfig otherwise).
struct IncrementalRow {
  const char* family;
  uint32_t k;
  uint64_t digest;
};

const IncrementalRow kIncrementalRows[] = {
    {"social", 2, 0x992cfc6c4c297542ULL},
    {"social", 5, 0x1b4dad653c48fee8ULL},
    {"social", 32, 0x5dc51352a28ae724ULL},
    {"community", 2, 0xd0eb02a6f7ed75fcULL},
    {"community", 5, 0x526b376c20ae175bULL},
    {"community", 32, 0x3af52cfa383bbc8dULL},
    {"uniform", 2, 0xaf9577917ef23e52ULL},
    {"uniform", 5, 0x0ab76222e73c68deULL},
    {"uniform", 32, 0x565e1405683e7ad6ULL},
};

/// Every name MakePartitioner accepts. The registry has no single
/// enumerator; the published rosters (Fig. 4 + streaming) plus Hash and
/// the two "(par)" aliases cover it, and the coverage test cross-checks
/// that each name actually constructs. The alias rows keep the digests
/// of the names they alias.
std::vector<std::string> FullRegistry() {
  std::vector<std::string> names = Fig4PartitionerNames();
  for (const std::string& name : StreamingPartitionerNames()) {
    bool seen = false;
    for (const std::string& have : names) {
      seen = seen || have == name;
    }
    if (!seen) {
      names.push_back(name);
    }
  }
  names.push_back("Hash");
  names.push_back("2PS-L(par)");
  names.push_back("2PS-HDRF(par)");
  return names;
}

TEST(StateKernelIdentityTest, GoldenTableCoversWholeRegistry) {
  // Every registered partitioner must appear in the oracle grid: a new
  // baseline added without golden rows would otherwise silently skip
  // identity coverage.
  std::map<std::string, int> rows_per_name;
  for (const GoldenRow& row : kGoldenRows) {
    ++rows_per_name[row.partitioner];
  }
  const std::vector<std::string> registry = FullRegistry();
  for (const std::string& name : registry) {
    EXPECT_TRUE(MakePartitioner(name).ok()) << name;
    EXPECT_EQ(rows_per_name[name], 9)
        << "partitioner '" << name
        << "' needs 9 golden rows (3 families x 3 k); re-capture the table";
  }
  EXPECT_EQ(std::size(kGoldenRows), 9 * registry.size());
}

TEST(StateKernelIdentityTest, AssignmentStreamsMatchPreRefactorDigests) {
  // Group by family so each graph is generated once (DNE/NE at scale
  // are the slow rows; the whole grid is a few seconds in release).
  std::map<std::string, std::vector<const GoldenRow*>> by_family;
  for (const GoldenRow& row : kGoldenRows) {
    by_family[row.family].push_back(&row);
  }
  for (const auto& [family, rows] : by_family) {
    const std::vector<Edge> edges = MakeFamily(family);
    ASSERT_FALSE(edges.empty());
    InMemoryEdgeStream stream(edges);
    for (const GoldenRow* row : rows) {
      auto partitioner = MakePartitioner(row->partitioner);
      ASSERT_TRUE(partitioner.ok()) << row->partitioner;
      PartitionConfig config;
      config.num_partitions = row->k;
      config.exec.threads = 1;
      ChecksumSink sink;
      const Status status =
          (*partitioner)->Partition(stream, config, sink, nullptr);
      ASSERT_TRUE(status.ok())
          << row->partitioner << " on " << family << ": " << status.ToString();
      EXPECT_EQ(sink.digest(), row->digest)
          << row->partitioner << " k=" << row->k << " family=" << family
          << ": assignment stream diverged from the pre-refactor oracle";
    }
  }
}

TEST(StateKernelIdentityTest, TwoPhaseOptionStreamsMatchCapturedDigests) {
  std::map<std::string, std::vector<const OptionRow*>> by_family;
  for (const OptionRow& row : kOptionRows) {
    by_family[row.family].push_back(&row);
  }
  for (const auto& [family, rows] : by_family) {
    const std::vector<Edge> edges = MakeFamily(family);
    InMemoryEdgeStream stream(edges);
    for (const OptionRow* row : rows) {
      TwoPhasePartitioner::Options options;
      if (std::string(row->option) == "round-robin") {
        options.scheduling = TwoPhasePartitioner::SchedulingMode::kRoundRobin;
      } else {
        options.use_cluster_volume_term = false;
      }
      TwoPhasePartitioner partitioner(options);
      PartitionConfig config;
      config.num_partitions = row->k;
      ChecksumSink sink;
      const Status status =
          partitioner.Partition(stream, config, sink, nullptr);
      ASSERT_TRUE(status.ok()) << status.ToString();
      EXPECT_EQ(sink.digest(), row->digest)
          << row->option << " k=" << row->k << " family=" << family;
    }
  }
}

/// Digest of one IncrementalRow's placements (see kIncrementalRows)
/// with `exec` in the partitioner's config.
uint64_t IncrementalDigest(const IncrementalRow& row,
                           const exec::ExecContext& exec) {
  const std::vector<Edge> edges = MakeFamily(row.family);
  const size_t split = edges.size() * 9 / 10;
  VertexId num_vertices = 0;
  for (const Edge& e : edges) {
    num_vertices = std::max({num_vertices, e.first + 1, e.second + 1});
  }
  InMemoryEdgeStream base(
      std::vector<Edge>(edges.begin(), edges.begin() + split));
  PartitionConfig config;
  config.num_partitions = row.k;
  config.exec = exec;
  IncrementalPartitioner partitioner(config);
  ChecksumSink sink;
  const Status bootstrap = partitioner.Bootstrap(base, sink);
  EXPECT_TRUE(bootstrap.ok()) << bootstrap.ToString();
  for (size_t i = split; i < edges.size(); ++i) {
    Edge e = edges[i];
    if (i % 3 == 0) {
      e.second += num_vertices;
    }
    if (i % 7 == 0) {
      e.first += num_vertices;
    }
    if (e.first == e.second) {
      continue;
    }
    const StatusOr<PartitionId> placed = partitioner.AddEdge(e);
    EXPECT_TRUE(placed.ok()) << placed.status().ToString();
    if (!placed.ok()) {
      break;
    }
    sink.Assign(e, *placed);
  }
  return sink.digest();
}

// Bootstrap builds its plan on config.exec. Four threads asked of a
// one-thread pool run one worker, in order, so they must reproduce the
// sequential digests too.
TEST(StateKernelIdentityTest, IncrementalPlacementsMatchCapturedDigests) {
  exec::ThreadPool one_thread_pool(1);
  exec::ExecContext one_worker;
  one_worker.threads = 4;
  one_worker.pool = &one_thread_pool;
  ASSERT_EQ(one_worker.Workers(), 1u);
  for (const exec::ExecContext& exec : {exec::ExecContext(), one_worker}) {
    for (const IncrementalRow& row : kIncrementalRows) {
      const uint64_t digest = IncrementalDigest(row, exec);
      EXPECT_EQ(digest, row.digest)
          << "threads=" << exec.threads << " family=" << row.family
          << " k=" << row.k << " digest=0x" << std::hex << digest;
    }
  }
}

}  // namespace
}  // namespace tpsl
