#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/registry.h"
#include "graph/edge_stream.h"
#include "graph/in_memory_edge_stream.h"
#include "partition/runner.h"

namespace tpsl {
namespace {

/// Stream that fails on the Nth Reset() — injects I/O failures into
/// arbitrary passes of multi-pass partitioners.
class FailingStream : public EdgeStream {
 public:
  FailingStream(std::vector<Edge> edges, int fail_on_reset)
      : inner_(std::move(edges)), fail_on_reset_(fail_on_reset) {}

  Status Reset() override {
    ++resets_;
    if (resets_ == fail_on_reset_) {
      return Status::IoError("injected failure on reset #" +
                             std::to_string(resets_));
    }
    return inner_.Reset();
  }

  size_t Next(Edge* out, size_t capacity) override {
    return inner_.Next(out, capacity);
  }

  uint64_t NumEdgesHint() const override { return inner_.NumEdgesHint(); }

 private:
  InMemoryEdgeStream inner_;
  int fail_on_reset_;
  int resets_ = 0;
};

std::vector<Edge> SmallGraph() {
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < 500; ++i) {
    edges.push_back(Edge{i % 37, (i * 13) % 41});
  }
  for (Edge& e : edges) {
    if (e.first == e.second) {
      e.second += 1;
    }
  }
  return edges;
}

TEST(FailureInjectionTest, TwoPhasePropagatesIoErrorsFromEveryPass) {
  // 2PS-L makes 4 passes; failing any of them must surface the error.
  for (int failing_pass = 1; failing_pass <= 4; ++failing_pass) {
    FailingStream stream(SmallGraph(), failing_pass);
    auto partitioner = MakePartitioner("2PS-L");
    ASSERT_TRUE(partitioner.ok());
    PartitionConfig config;
    config.num_partitions = 4;
    CountingSink sink(4);
    const Status status =
        (*partitioner)->Partition(stream, config, sink, nullptr);
    EXPECT_EQ(status.code(), StatusCode::kIoError)
        << "pass " << failing_pass;
  }
}

TEST(FailureInjectionTest, SinglePassPartitionersPropagateToo) {
  for (const char* name : {"Hash", "DBH", "HDRF", "Greedy"}) {
    FailingStream stream(SmallGraph(), 1);
    auto partitioner = MakePartitioner(name);
    ASSERT_TRUE(partitioner.ok());
    PartitionConfig config;
    config.num_partitions = 4;
    CountingSink sink(4);
    EXPECT_FALSE(
        (*partitioner)->Partition(stream, config, sink, nullptr).ok())
        << name;
  }
}

/// Degenerate graph shapes every partitioner must survive. The
/// engine-parallel entries (the "(par)" aliases and DNE) run on four
/// workers with small batches, so chunked load claims, parallel expansion
/// and the runner's serialized sink delivery see the same shapes under
/// contention.
class DegenerateGraphTest : public testing::TestWithParam<std::string> {
 protected:
  PartitionConfig Config(uint32_t k) const {
    PartitionConfig config;
    config.num_partitions = k;
    if (GetParam().find("(par)") != std::string::npos ||
        GetParam() == "DNE") {
      config.exec.threads = 4;
      config.exec.batch_size = 16;
    }
    return config;
  }
};

TEST_P(DegenerateGraphTest, EmptyGraph) {
  auto partitioner = MakePartitioner(GetParam());
  ASSERT_TRUE(partitioner.ok());
  InMemoryEdgeStream stream;
  const PartitionConfig config = Config(4);
  auto result = RunPartitioner(**partitioner, stream, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->quality.num_edges, 0u);
}

TEST_P(DegenerateGraphTest, SingleEdge) {
  auto partitioner = MakePartitioner(GetParam());
  ASSERT_TRUE(partitioner.ok());
  InMemoryEdgeStream stream({{0, 1}});
  const PartitionConfig config = Config(4);
  auto result = RunPartitioner(**partitioner, stream, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->quality.num_edges, 1u);
  EXPECT_DOUBLE_EQ(result->quality.replication_factor, 1.0);
}

TEST_P(DegenerateGraphTest, SelfLoopsOnly) {
  auto partitioner = MakePartitioner(GetParam());
  ASSERT_TRUE(partitioner.ok());
  InMemoryEdgeStream stream({{3, 3}, {3, 3}, {5, 5}});
  const PartitionConfig config = Config(2);
  auto result = RunPartitioner(**partitioner, stream, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->quality.num_edges, 3u);
}

TEST_P(DegenerateGraphTest, StarGraph) {
  // One hub: every partition must replicate it; RF stays modest for
  // the leaves.
  std::vector<Edge> edges;
  for (VertexId v = 1; v <= 400; ++v) {
    edges.push_back(Edge{0, v});
  }
  auto partitioner = MakePartitioner(GetParam());
  ASSERT_TRUE(partitioner.ok());
  InMemoryEdgeStream stream(edges);
  const PartitionConfig config = Config(8);
  auto result = RunPartitioner(**partitioner, stream, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->quality.num_edges, 400u);
  // 401 vertices; hub replicas add at most k-1 extras.
  EXPECT_LE(result->quality.replication_factor, 1.1);
}

TEST_P(DegenerateGraphTest, SparseVertexIdSpace) {
  // Huge gaps between ids stress the O(|V|) arrays.
  std::vector<Edge> edges = {
      {0, 1000000}, {1000000, 2000000}, {2000000, 0}, {5, 2000000}};
  auto partitioner = MakePartitioner(GetParam());
  ASSERT_TRUE(partitioner.ok());
  InMemoryEdgeStream stream(edges);
  const PartitionConfig config = Config(2);
  auto result = RunPartitioner(**partitioner, stream, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->quality.num_edges, edges.size());
}

TEST_P(DegenerateGraphTest, HeavyMultiEdges) {
  // The same edge repeated many times must still respect the cap.
  std::vector<Edge> edges(300, Edge{1, 2});
  for (uint32_t i = 0; i < 100; ++i) {
    edges.push_back(Edge{i, i + 1});
  }
  auto partitioner = MakePartitioner(GetParam());
  ASSERT_TRUE(partitioner.ok());
  InMemoryEdgeStream stream(edges);
  const PartitionConfig config = Config(8);
  auto result = RunPartitioner(**partitioner, stream, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->quality.num_edges, 400u);
}

INSTANTIATE_TEST_SUITE_P(
    CapEnforcingPartitioners, DegenerateGraphTest,
    testing::Values("2PS-L", "2PS-HDRF", "2PS-L(par)", "2PS-HDRF(par)",
                    "HDRF", "Greedy", "ADWISE", "NE", "SNE", "DNE", "HEP-10",
                    "METIS*"),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-' || c == '*' || c == '(' || c == ')') {
          c = '_';
        }
      }
      return name;
    });

TEST(CapStressTest, TightAlphaWithAwkwardK) {
  // alpha = 1.0 and k that does not divide |E|: feasibility must come
  // from the ceil in PartitionCapacity.
  const auto edges = SmallGraph();  // 500 edges
  for (const uint32_t k : {3u, 7u, 11u, 13u}) {
    for (const char* name : {"2PS-L", "2PS-L(par)", "HDRF", "Greedy"}) {
      auto partitioner = MakePartitioner(name);
      ASSERT_TRUE(partitioner.ok());
      InMemoryEdgeStream stream(edges);
      PartitionConfig config;
      config.num_partitions = k;
      config.balance_factor = 1.0;
      if (std::string(name) == "2PS-L(par)") {
        // Chunked claims racing for the last slots.
        config.exec.threads = 4;
        config.exec.batch_size = 16;
      }
      auto result = RunPartitioner(**partitioner, stream, config);
      ASSERT_TRUE(result.ok())
          << name << " k=" << k << ": " << result.status().ToString();
    }
  }
}

TEST(CapStressTest, MoreParitionsThanEdges) {
  InMemoryEdgeStream stream({{0, 1}, {1, 2}});
  for (const char* name : {"2PS-L", "HDRF", "DBH"}) {
    auto partitioner = MakePartitioner(name);
    ASSERT_TRUE(partitioner.ok());
    PartitionConfig config;
    config.num_partitions = 16;
    auto result = RunPartitioner(**partitioner, stream, config);
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_EQ(result->quality.num_edges, 2u);
  }
}

}  // namespace
}  // namespace tpsl
