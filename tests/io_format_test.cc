#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "exec/parallel_for_edges.h"
#include "exec/thread_pool.h"
#include "graph/binary_edge_list.h"
#include "graph/generators.h"
#include "io/compressed_edge_writer.h"
#include "io/edge_block_format.h"
#include "io/edge_file.h"
#include "io/mmap_edge_stream.h"
#include "io/storage_profile.h"
#include "util/random.h"

namespace tpsl {
namespace io {
namespace {

std::string TempPath(const std::string& stem) {
  return testing::TempDir() + "/" + stem + ".bin";
}

uint64_t FileBytes(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr);
  std::fseek(file, 0, SEEK_END);
  const long bytes = std::ftell(file);
  std::fclose(file);
  return static_cast<uint64_t>(bytes);
}

/// Round-trips `edges` through the compressed format and checks exact
/// edge recovery plus the trailer's logical digest against the raw
/// byte digest (the property that keeps raw-era catalog pins valid).
void RoundTrip(const std::vector<Edge>& edges, const std::string& stem) {
  const std::string path = TempPath(stem);
  ASSERT_TRUE(WriteEdgeFile(path, edges, EdgeFileFormat::kCompressedBlocks)
                  .ok());
  auto format = SniffEdgeFileFormat(path);
  ASSERT_TRUE(format.ok());
  EXPECT_EQ(*format, EdgeFileFormat::kCompressedBlocks);

  auto readback = ReadEdgeFile(path);
  ASSERT_TRUE(readback.ok()) << readback.status().ToString();
  EXPECT_EQ(*readback, edges) << stem;

  // The mmap reader agrees, across two passes.
  auto stream = MmapEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<Edge> got;
    ASSERT_TRUE(
        ForEachEdge(**stream, [&](const Edge& e) { got.push_back(e); }).ok());
    EXPECT_EQ(got, edges) << stem << " pass " << pass;
    ASSERT_TRUE((*stream)->Health().ok());
  }
  EXPECT_EQ((*stream)->NumEdgesHint(), edges.size());
  std::remove(path.c_str());
}

TEST(EdgeBlockFormatTest, RoundTripsGeneratedFamilies) {
  RmatConfig rmat;
  rmat.scale = 12;
  RoundTrip(GenerateRmat(rmat), "rt_rmat");

  ErdosRenyiConfig er;
  er.num_vertices = 1 << 12;
  er.num_edges = 1 << 16;
  RoundTrip(GenerateErdosRenyi(er), "rt_er");

  PlantedPartitionConfig pp;
  pp.num_vertices = 1 << 12;
  pp.num_edges = 1 << 16;
  RoundTrip(GeneratePlantedPartition(pp), "rt_pp");

  SocialNetworkConfig sn;
  sn.num_vertices = 1 << 13;
  RoundTrip(GenerateSocialNetwork(sn), "rt_sn");
}

TEST(EdgeBlockFormatTest, RoundTripsAdversarialInputs) {
  // Duplicate edges (deltas of zero in both columns).
  std::vector<Edge> duplicates(5000, Edge{7, 7});
  RoundTrip(duplicates, "rt_dup");

  // Self-loop-adjacent ids: both columns track each other closely, so
  // the delta coder sees tiny oscillating values.
  std::vector<Edge> loops;
  for (uint32_t i = 0; i < 5000; ++i) {
    loops.push_back(Edge{i, i});
    loops.push_back(Edge{i, i + 1});
  }
  RoundTrip(loops, "rt_loops");

  // Max-u32 endpoints: full 32-bit raw widths and 33-bit zigzag deltas.
  const uint32_t max = std::numeric_limits<uint32_t>::max();
  std::vector<Edge> extremes;
  for (uint32_t i = 0; i < 2000; ++i) {
    extremes.push_back(Edge{(i % 2 == 0) ? max : 0, max - i});
    extremes.push_back(Edge{0, (i % 3 == 0) ? max : i});
  }
  RoundTrip(extremes, "rt_extreme");

  // Alternating extremes defeat delta coding entirely (ties go raw).
  std::vector<Edge> alternating;
  for (uint32_t i = 0; i < 3000; ++i) {
    alternating.push_back(Edge{i % 2 == 0 ? 0 : max, i % 2 == 0 ? max : 0});
  }
  RoundTrip(alternating, "rt_alt");

  // Empty and single-edge files.
  RoundTrip({}, "rt_empty");
  RoundTrip({Edge{3, 9}}, "rt_one");

  // Exactly one full default block, one edge more, one edge less.
  std::vector<Edge> exact;
  SplitMix64 rng(42);
  for (uint32_t i = 0; i < kDefaultBlockEdges; ++i) {
    exact.push_back(Edge{static_cast<uint32_t>(rng.Next()),
                         static_cast<uint32_t>(rng.Next())});
  }
  RoundTrip(exact, "rt_block_exact");
  std::vector<Edge> over = exact;
  over.push_back(Edge{1, 2});
  RoundTrip(over, "rt_block_over");
  std::vector<Edge> under(exact.begin(), exact.end() - 1);
  RoundTrip(under, "rt_block_under");
}

TEST(EdgeBlockFormatTest, LogicalChecksumMatchesRawDigest) {
  // The trailer digest is FNV-1a over the decoded edge bytes — exactly
  // the digest the catalog pins for a raw file of the same edges.
  RmatConfig rmat;
  rmat.scale = 10;
  const auto edges = GenerateRmat(rmat);
  const uint64_t raw_digest =
      Fnv1a64(edges.data(), edges.size() * sizeof(Edge));

  const std::string path = TempPath("digest");
  CompressedEdgeWriter writer(path);
  ASSERT_TRUE(writer.Health().ok());
  writer.Append(0, edges.data(), edges.size());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.edge_checksum(0), raw_digest);
  EXPECT_EQ(writer.edges_written(0), edges.size());
  EXPECT_EQ(writer.bytes_written(), FileBytes(path));
  std::remove(path.c_str());
}

TEST(EdgeBlockFormatTest, CompressesClusteredGraphs) {
  // Generated graphs have locally clustered ids; the block coder must
  // beat raw comfortably (the catalog gate demands ≥1.5× on rmat).
  RmatConfig rmat;
  rmat.scale = 14;
  const auto edges = GenerateRmat(rmat);
  const std::string path = TempPath("ratio");
  ASSERT_TRUE(
      WriteEdgeFile(path, edges, EdgeFileFormat::kCompressedBlocks).ok());
  const uint64_t raw_bytes = edges.size() * sizeof(Edge);
  const uint64_t compressed = FileBytes(path);
  EXPECT_LT(compressed * 3, raw_bytes * 2)
      << "compression ratio below 1.5x: " << compressed << " vs "
      << raw_bytes;
  std::remove(path.c_str());
}

TEST(EdgeBlockFormatTest, SniffsRawFiles) {
  const std::vector<Edge> edges = {{1, 2}, {3, 4}, {5, 6}};
  const std::string path = TempPath("sniff_raw");
  ASSERT_TRUE(WriteBinaryEdgeList(path, edges).ok());
  auto format = SniffEdgeFileFormat(path);
  ASSERT_TRUE(format.ok());
  EXPECT_EQ(*format, EdgeFileFormat::kRaw);
  auto readback = ReadEdgeFile(path);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(*readback, edges);
  std::remove(path.c_str());
}

TEST(EdgeBlockFormatTest, DirectoryFailsAtOpen) {
  // A directory opens for reading, but reading its leading bytes fails
  // (EISDIR): sniffing must report that instead of calling it raw.
  auto format = SniffEdgeFileFormat(testing::TempDir());
  ASSERT_FALSE(format.ok());
  EXPECT_EQ(format.status().code(), StatusCode::kIoError);
  auto stream = OpenEdgeFile(testing::TempDir());
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kIoError);
}

/// XORs the byte at `offset` of `path` with 0xff.
void FlipByte(const std::string& path, long offset) {
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fseek(file, offset, SEEK_SET), 0);
  const int byte = std::fgetc(file);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(file, offset, SEEK_SET), 0);
  std::fputc(byte ^ 0xff, file);
  std::fclose(file);
}

TEST(EdgeBlockFormatTest, DetectsCorruptedBlockPayload) {
  RmatConfig rmat;
  rmat.scale = 10;
  const auto edges = GenerateRmat(rmat);
  const std::string path = TempPath("corrupt");
  ASSERT_TRUE(
      WriteEdgeFile(path, edges, EdgeFileFormat::kCompressedBlocks).ok());

  // Flip one payload byte in the middle of the file — past the first
  // block header, before the trailer.
  FlipByte(path, static_cast<long>(kEdgeFileHeaderBytes +
                                   kEdgeBlockHeaderBytes + 100));

  auto stream = MmapEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok());
  std::vector<Edge> got;
  Edge buf[512];
  for (;;) {
    const size_t n = (*stream)->Next(buf, 512);
    if (n == 0) {
      break;
    }
    got.insert(got.end(), buf, buf + n);
  }
  // The checksum mismatch is a sticky Health() error, not silent short
  // delivery.
  EXPECT_FALSE((*stream)->Health().ok());
  EXPECT_LT(got.size(), edges.size());

  // The catalog's full-file reader refuses too.
  EXPECT_FALSE(ReadEdgeFile(path).ok());

  // The parallel block path fails both ways a block can: a payload that
  // fails DecodeBlock in a worker (this file's one block), and a second
  // block header that NextEncodedBlock rejects, latching Health() after
  // the first block went out.
  rmat.scale = 12;
  const auto big_edges = GenerateRmat(rmat);
  const std::string header_path = TempPath("corrupt_header");
  ASSERT_TRUE(WriteEdgeFile(header_path, big_edges,
                            EdgeFileFormat::kCompressedBlocks)
                  .ok());
  size_t first_block_bytes = 0;
  {
    auto probe = MmapEdgeStream::Open(header_path);
    ASSERT_TRUE(probe.ok());
    ASSERT_TRUE((*probe)->Reset().ok());
    BlockEdgeStream::EncodedBlock block;
    ASSERT_TRUE((*probe)->NextEncodedBlock(&block));
    ASSERT_LT(block.num_edges, big_edges.size());
    first_block_bytes = block.bytes;
  }
  // Byte 16 of a block header is the first column's mode; 0xff^mode is
  // no valid mode.
  FlipByte(header_path, static_cast<long>(kEdgeFileHeaderBytes +
                                          first_block_bytes + 16));
  const struct {
    const std::string* path;
    size_t num_edges;
  } corrupt_files[] = {{&path, edges.size()},
                       {&header_path, big_edges.size()}};
  for (const auto& corrupt : corrupt_files) {
    auto parallel = MmapEdgeStream::Open(*corrupt.path);
    ASSERT_TRUE(parallel.ok());
    exec::ThreadPool pool(4);
    exec::ExecContext context;
    context.threads = 4;
    context.pool = &pool;
    std::atomic<uint64_t> delivered{0};
    const Status status = exec::ParallelForEdges(
        **parallel, context, [&](const Edge*, size_t count) {
          delivered.fetch_add(count, std::memory_order_relaxed);
          return Status::OK();
        });
    EXPECT_FALSE(status.ok()) << *corrupt.path;
    EXPECT_LT(delivered.load(), corrupt.num_edges) << *corrupt.path;
  }
  std::remove(path.c_str());
  std::remove(header_path.c_str());
}

TEST(EdgeBlockFormatTest, DetectsTruncation) {
  RmatConfig rmat;
  rmat.scale = 10;
  const auto edges = GenerateRmat(rmat);
  const std::string path = TempPath("truncate");
  ASSERT_TRUE(
      WriteEdgeFile(path, edges, EdgeFileFormat::kCompressedBlocks).ok());
  const uint64_t full = FileBytes(path);

  // Chop off the trailer plus a bit of the last block.
  ASSERT_EQ(truncate(path.c_str(),
                     static_cast<off_t>(full - kEdgeFileTrailerBytes - 7)),
            0);
  auto stream = MmapEdgeStream::Open(path);
  EXPECT_FALSE(stream.ok());
  EXPECT_FALSE(ReadEdgeFile(path).ok());
  std::remove(path.c_str());
}

TEST(EdgeBlockFormatTest, ParallelBlockDecodeMatchesSequential) {
  // ParallelForEdges takes the BlockEdgeStream path for mmap streams:
  // workers decode blocks concurrently. The multiset of delivered
  // edges must match the sequential pass exactly.
  RmatConfig rmat;
  rmat.scale = 13;
  const auto edges = GenerateRmat(rmat);
  const std::string path = TempPath("parallel");
  ASSERT_TRUE(
      WriteEdgeFile(path, edges, EdgeFileFormat::kCompressedBlocks).ok());

  uint64_t want_sum = 0;
  for (const Edge& e : edges) {
    want_sum += e.first * 2654435761u + e.second;
  }

  auto stream = MmapEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok());
  exec::ThreadPool pool(4);
  exec::ExecContext context;
  context.threads = 4;
  context.pool = &pool;
  std::atomic<uint64_t> got_sum{0};
  std::atomic<uint64_t> got_count{0};
  ASSERT_TRUE(exec::ParallelForEdges(
                  **stream, context,
                  [&](const Edge* batch, size_t count) {
                    uint64_t sum = 0;
                    for (size_t i = 0; i < count; ++i) {
                      sum += batch[i].first * 2654435761u + batch[i].second;
                    }
                    got_sum.fetch_add(sum, std::memory_order_relaxed);
                    got_count.fetch_add(count, std::memory_order_relaxed);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(got_count.load(), edges.size());
  EXPECT_EQ(got_sum.load(), want_sum);
  ASSERT_TRUE((*stream)->Health().ok());
  std::remove(path.c_str());
}

/// File-backed resident bytes of this process ("RssFile" in
/// /proc/self/status): the mapped pages of an MmapEdgeStream, plus the
/// binary's own text. 0 where /proc does not report it.
uint64_t RssFileBytes() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) {
    return 0;
  }
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::sscanf(line, "RssFile: %llu kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(file);
  return static_cast<uint64_t>(kb) * 1024;
}

TEST(EdgeBlockFormatTest, FinishedPassLeavesNothingMapped) {
  // Free-behind releases the consumed map every 8 MiB, so a file
  // between 4 and 8 MiB is one tail from start to end: only the
  // release at the end of each pass keeps it from staying resident.
  if (RssFileBytes() == 0) {
    GTEST_SKIP() << "/proc/self/status reports no RssFile";
  }
  RmatConfig rmat;
  rmat.scale = 16;
  rmat.edge_factor = 24;
  const auto edges = GenerateRmat(rmat);
  const std::string path = TempPath("tail_release");
  ASSERT_TRUE(
      WriteEdgeFile(path, edges, EdgeFileFormat::kCompressedBlocks).ok());
  const uint64_t file_bytes = FileBytes(path);
  ASSERT_GE(file_bytes, uint64_t{4} << 20);
  ASSERT_LT(file_bytes, uint64_t{8} << 20);

  exec::ThreadPool pool(4);
  exec::ExecContext context;
  context.threads = 4;
  context.pool = &pool;
  auto stream = MmapEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok());
  for (const bool parallel : {false, true}) {
    for (int pass = 1; pass <= 2; ++pass) {
      SCOPED_TRACE(testing::Message()
                   << (parallel ? "ParallelForEdges" : "Next()")
                   << " pass " << pass);
      const uint64_t before = RssFileBytes();
      std::atomic<uint64_t> count{0};
      if (parallel) {
        ASSERT_TRUE(exec::ParallelForEdges(
                        **stream, context,
                        [&count](const Edge*, size_t n) {
                          count.fetch_add(n, std::memory_order_relaxed);
                          return Status::OK();
                        })
                        .ok());
      } else {
        ASSERT_TRUE(ForEachEdge(**stream, [&count](const Edge&) {
                      count.fetch_add(1, std::memory_order_relaxed);
                    }).ok());
      }
      ASSERT_EQ(count.load(), edges.size());
      const uint64_t after = RssFileBytes();
      EXPECT_LT(after, before + file_bytes / 4)
          << "RssFile grew from " << before << " to " << after
          << " bytes over a pass of a " << file_bytes << "-byte file";
    }
  }
  std::remove(path.c_str());
}

TEST(EdgeBlockFormatTest, IoStatsReportCompressedBytes) {
  // The storage cost model must bill the simulated device for the
  // compressed (on-disk) bytes, not the decoded edge volume.
  RmatConfig rmat;
  rmat.scale = 12;
  const auto edges = GenerateRmat(rmat);
  const std::string path = TempPath("iostats");
  ASSERT_TRUE(
      WriteEdgeFile(path, edges, EdgeFileFormat::kCompressedBlocks).ok());
  const uint64_t file_bytes = FileBytes(path);
  ASSERT_LT(file_bytes, edges.size() * sizeof(Edge));

  auto stream = MmapEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok());
  for (int pass = 1; pass <= 2; ++pass) {
    ASSERT_TRUE(ForEachEdge(**stream, [](const Edge&) {}).ok());
    const StreamIoStats io = (*stream)->Io();
    EXPECT_TRUE(io.disk_backed);
    // A full pass reads exactly the file: every block once plus the
    // fixed framing.
    EXPECT_EQ(io.disk_bytes_this_pass, file_bytes);
    EXPECT_EQ(io.disk_bytes_total, file_bytes * pass);
    EXPECT_EQ(io.passes, static_cast<uint64_t>(pass));
  }
  // Simulated device time follows the compressed account.
  EXPECT_DOUBLE_EQ(
      SimulatedIoSeconds((*stream)->Io(), kHddProfile),
      static_cast<double>(2 * file_bytes) /
          static_cast<double>(kHddProfile.bytes_per_second));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace io
}  // namespace tpsl
