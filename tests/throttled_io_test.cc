#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "graph/binary_edge_list.h"
#include "io/storage_profile.h"

namespace tpsl {
namespace {

std::vector<Edge> SomeEdges(size_t n) {
  std::vector<Edge> edges;
  for (uint32_t i = 0; i < n; ++i) {
    edges.push_back(Edge{i, i + 1});
  }
  return edges;
}

/// A raw edge file of `n` edges, removed when the test ends.
class RawFile {
 public:
  RawFile(const std::string& name, size_t n)
      : path_(testing::TempDir() + "/" + name + "." +
              std::to_string(::getpid())) {
    EXPECT_TRUE(WriteBinaryEdgeList(path_, SomeEdges(n)).ok());
  }
  ~RawFile() { std::remove(path_.c_str()); }

  std::unique_ptr<BinaryFileEdgeStream> Open() const {
    auto stream = BinaryFileEdgeStream::Open(path_);
    EXPECT_TRUE(stream.ok());
    return stream.ok() ? std::move(*stream) : nullptr;
  }

 private:
  std::string path_;
};

void ReadPass(EdgeStream& stream) {
  ASSERT_TRUE(ForEachEdge(stream, [](const Edge&) {}).ok());
}

TEST(StorageProfileTest, PageCacheProfileIsFree) {
  RawFile file("page_cache", 1000);
  auto stream = file.Open();
  ReadPass(*stream);
  EXPECT_GT(stream->Io().disk_bytes_total, 0u);
  EXPECT_DOUBLE_EQ(SimulatedIoSeconds(stream->Io(), kPageCacheProfile), 0.0);
}

TEST(StorageProfileTest, SimulatedIoTimeMatchesBandwidth) {
  RawFile file("bandwidth", 1000);
  auto stream = file.Open();
  ReadPass(*stream);
  // 8000 bytes at 8000 B/s = 1 second.
  EXPECT_DOUBLE_EQ(
      SimulatedIoSeconds(stream->Io(), StorageProfile{"Test", 8000}), 1.0);
}

TEST(StorageProfileTest, HddSlowerThanSsd) {
  RawFile file("hdd_ssd", 5000);
  auto stream = file.Open();
  ReadPass(*stream);
  EXPECT_GT(SimulatedIoSeconds(stream->Io(), kHddProfile),
            SimulatedIoSeconds(stream->Io(), kSsdProfile));
}

TEST(StorageProfileTest, PerPassAndCumulativeAccounting) {
  RawFile file("per_pass", 250);
  auto stream = file.Open();
  for (uint64_t pass = 0; pass < 4; ++pass) {
    ReadPass(*stream);
    const StreamIoStats io = stream->Io();
    // The per-pass account covers exactly one pass...
    EXPECT_EQ(io.disk_bytes_this_pass, 250 * sizeof(Edge));
    // ...while the cumulative account, which the cost model prices,
    // keeps growing across passes.
    EXPECT_EQ(io.disk_bytes_total, (pass + 1) * 250 * sizeof(Edge));
    EXPECT_EQ(io.passes, pass + 1);
    EXPECT_DOUBLE_EQ(
        SimulatedIoSeconds(io, StorageProfile{"Test", 2000}),
        static_cast<double>(pass + 1));
  }
}

TEST(StorageProfileTest, ResetDropsPerPassAccountOnly) {
  // Reset() models a dropped page cache: the new pass starts at zero
  // bytes, but the device-time account keeps the full history (every
  // pass pays full I/O cost).
  RawFile file("reset", 100);
  auto stream = file.Open();
  const StorageProfile device{"Test", 800};
  ReadPass(*stream);
  const double io_after_one_pass = SimulatedIoSeconds(stream->Io(), device);
  EXPECT_GT(io_after_one_pass, 0.0);

  ASSERT_TRUE(stream->Reset().ok());
  const StreamIoStats io = stream->Io();
  EXPECT_EQ(io.disk_bytes_this_pass, 0u);
  EXPECT_EQ(io.disk_bytes_total, 100 * sizeof(Edge));
  EXPECT_EQ(io.passes, 2u);
  EXPECT_DOUBLE_EQ(SimulatedIoSeconds(io, device), io_after_one_pass);
}

}  // namespace
}  // namespace tpsl
