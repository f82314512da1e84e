#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "core/two_phase_partitioner.h"
#include "graph/binary_edge_list.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "io/edge_block_format.h"
#include "io/edge_file.h"
#include "partition/partitioned_writer.h"
#include "partition/runner.h"

namespace tpsl {
namespace {

TEST(PartitionedWriterTest, WritesPerPartitionFilesAndManifest) {
  const std::string prefix = testing::TempDir() + "/writer_test";
  PartitionedWriter writer(prefix, 3);
  ASSERT_TRUE(writer.status().ok());
  writer.Assign(Edge{0, 1}, 0);
  writer.Assign(Edge{1, 2}, 0);
  writer.Assign(Edge{2, 3}, 2);
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.edge_counts(), (std::vector<uint64_t>{2, 0, 1}));

  // Spilled files are compressed edge-block files; the sniffing reader
  // decodes them back to the exact assignments.
  EXPECT_EQ(io::SniffEdgeFileFormat(writer.PartitionPath(0)).value(),
            io::EdgeFileFormat::kCompressedBlocks);
  auto part0 = io::ReadEdgeFile(writer.PartitionPath(0));
  ASSERT_TRUE(part0.ok());
  EXPECT_EQ(*part0, (std::vector<Edge>{{0, 1}, {1, 2}}));
  auto part1 = io::ReadEdgeFile(writer.PartitionPath(1));
  ASSERT_TRUE(part1.ok());
  EXPECT_TRUE(part1->empty());

  // Manifest exists and mentions the counts.
  std::FILE* manifest = std::fopen((prefix + ".manifest").c_str(), "r");
  ASSERT_NE(manifest, nullptr);
  char line[256];
  ASSERT_NE(std::fgets(line, sizeof(line), manifest), nullptr);
  EXPECT_STREQ(line, "partitions 3\n");
  std::fclose(manifest);

  for (PartitionId p = 0; p < 3; ++p) {
    std::remove(writer.PartitionPath(p).c_str());
  }
  std::remove((prefix + ".manifest").c_str());
}

TEST(PartitionedWriterTest, FinishTwiceFails) {
  const std::string prefix = testing::TempDir() + "/writer_twice";
  PartitionedWriter writer(prefix, 1);
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_FALSE(writer.Finish().ok());
  std::remove(writer.PartitionPath(0).c_str());
  std::remove((prefix + ".manifest").c_str());
}

/// Caps the process file-size limit so writes past the cap fail with
/// EFBIG instead of killing the process — the portable way to make
/// fwrite fail mid-stream like a full disk. Restores on destruction.
class ScopedFileSizeLimit {
 public:
  explicit ScopedFileSizeLimit(rlim_t bytes) {
    getrlimit(RLIMIT_FSIZE, &old_limit_);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    struct rlimit tight = old_limit_;
    tight.rlim_cur = bytes;
    setrlimit(RLIMIT_FSIZE, &tight);
  }
  ~ScopedFileSizeLimit() {
    setrlimit(RLIMIT_FSIZE, &old_limit_);
    std::signal(SIGXFSZ, old_handler_);
  }

 private:
  struct rlimit old_limit_;
  void (*old_handler_)(int);
};

std::vector<Edge> IncompressibleEdges(size_t n) {
  // Pseudo-random endpoints over a 2^20-vertex range: small enough
  // that dense per-vertex partitioner state stays cheap, random enough
  // that blocks pack at ~20 bits per id — the on-disk volume tracks
  // the edge count and a small RLIMIT_FSIZE cap trips mid-write.
  std::vector<Edge> edges;
  edges.reserve(n);
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    edges.push_back(Edge{static_cast<uint32_t>(state >> 32) & 0xfffffu,
                         static_cast<uint32_t>(state) & 0xfffffu});
  }
  return edges;
}

TEST(PartitionedWriterTest, WriteFailureLatchesHealthAndFailsFinish) {
  const std::string prefix = testing::TempDir() + "/writer_full";
  const auto edges = IncompressibleEdges(200000);
  Status finish;
  {
    ScopedFileSizeLimit limit(16 * 1024);
    PartitionedWriter writer(prefix, 2);
    ASSERT_TRUE(writer.status().ok());
    for (size_t i = 0; i < edges.size(); ++i) {
      writer.Assign(edges[i], static_cast<PartitionId>(i % 2));
    }
    // The cap trips on the first blocks, and the appender cannot run
    // more than the block pool ahead of the writer thread, so the
    // failure has latched before Finish() seals anything.
    EXPECT_FALSE(writer.Health().ok());
    finish = writer.Finish();
    // The failed fwrite latched sticky; Finish() reports it and
    // Health() keeps reporting it.
    EXPECT_FALSE(writer.Health().ok());
    for (PartitionId p = 0; p < 2; ++p) {
      std::remove(writer.PartitionPath(p).c_str());
    }
  }
  EXPECT_FALSE(finish.ok());
  std::remove((prefix + ".manifest").c_str());
}

TEST(SpillRunTest, RunnerSurfacesSpillWriteFailure) {
  // The runner polls pipeline health after the pass: a spill writer
  // that hit the cap must fail the whole run, not silently drop edges.
  // At t>1 the failure latches on the writer thread while workers keep
  // delivering batches under the delivery mutex.
  const auto edges = IncompressibleEdges(200000);
  for (const uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    InMemoryEdgeStream stream(edges);
    TwoPhasePartitioner partitioner;
    PartitionConfig config;
    config.num_partitions = 4;
    config.exec.threads = threads;
    RunOptions options;
    options.spill_dir = testing::TempDir() + "/spill_full";
    options.spill_stem = "full";
    Status run_status;
    {
      ScopedFileSizeLimit limit(16 * 1024);
      auto run = RunPartitioner(partitioner, stream, config, options);
      run_status = run.status();
      if (run.ok()) {
        RemoveSpilledFiles(run->spill);
      }
    }
    EXPECT_FALSE(run_status.ok());
  }
}

TEST(CompressedEdgeWriterTest, WholeFileWriteFailureFailsWriteEdgeFile) {
  // The one-file path shares the spill writer's failure latch: a write
  // past the cap must surface as a non-OK WriteEdgeFile.
  const std::string path = testing::TempDir() + "/whole_full.bin";
  const auto edges = IncompressibleEdges(200000);
  Status status;
  {
    ScopedFileSizeLimit limit(16 * 1024);
    status = io::WriteEdgeFile(path, edges,
                               io::EdgeFileFormat::kCompressedBlocks);
  }
  EXPECT_FALSE(status.ok());
  std::remove(path.c_str());
}

/// FNV-1a 64 over every byte of the file at `path`.
uint64_t FileDigest(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << path;
  if (file == nullptr) {
    return 0;
  }
  uint64_t digest = io::kFnv1a64OffsetBasis;
  char buffer[1 << 16];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    digest = io::Fnv1a64(buffer, got, digest);
  }
  std::fclose(file);
  return digest;
}

std::vector<Edge> DigestGraph() {
  RmatConfig rmat;
  rmat.scale = 12;
  return GenerateRmat(rmat);
}

// Whole-file digests captured before the spill writer and the one-file
// writer shared one implementation. Block cut points and the encoder
// are part of the on-disk format, so every byte must survive a change
// to how blocks reach the disk.
struct SpillDigestRow {
  uint32_t k;
  std::vector<uint64_t> files;  // one digest per partition file
};

const SpillDigestRow kSpillDigestRows[] = {
    {4,
     {0x2bf5e719d8c510f2ULL, 0x8e42a0b4cd6d2d68ULL, 0xb3ef7d04bc40d46eULL,
      0x4d780df860af1745ULL}},
    {32,
     {0xffe1450620b2b9cfULL, 0xbe7e76f6299c2d3bULL, 0xe813fff53f2dfc22ULL,
      0x9c4ba1376e140bb5ULL, 0xd13e8ebcb916b5aaULL, 0x4f86971078a41f4dULL,
      0xf4428fcd46094c9bULL, 0x3f8c4d36e4fe9904ULL, 0x9acb627771ef8071ULL,
      0x2d8ff690bf886675ULL, 0x39f3a21796489fcbULL, 0xc9c3064e2155b68dULL,
      0x7d85dadab5ebbad9ULL, 0xbb66b9fbe7857d2aULL, 0x9fa3b670c202d927ULL,
      0x5b78ee4eb767cdf5ULL, 0x33c593dd57eafaeaULL, 0x2a29d03f17a94a4dULL,
      0x8743b4e5e8fcb2a3ULL, 0x9796c9859eb199b1ULL, 0x1dc6a9fcf283f604ULL,
      0xd673464136506b95ULL, 0x50e40c2174cb52ccULL, 0x6f0e6ac9e8814f02ULL,
      0x64f12629be51c0fcULL, 0x33db0fc9f0166fe8ULL, 0xb5197f799b6a1417ULL,
      0x9675566b67c6c133ULL, 0xa467611481dbe610ULL, 0xb3174803ea113f39ULL,
      0xee1aac365f81b256ULL, 0x5b202f7edd26b479ULL}},
};

constexpr uint64_t kWholeFileDigest = 0x1f07a241178cc4f2ULL;

TEST(WriterBytesTest, SpilledFilesMatchCapturedDigests) {
  const std::vector<Edge> edges = DigestGraph();
  for (const SpillDigestRow& row : kSpillDigestRows) {
    InMemoryEdgeStream stream(edges);
    TwoPhasePartitioner partitioner;
    PartitionConfig config;
    config.num_partitions = row.k;
    config.exec.threads = 1;
    RunOptions options;
    options.spill_dir = testing::TempDir() + "/spill_digest";
    options.spill_stem = "k" + std::to_string(row.k);
    auto run = RunPartitioner(partitioner, stream, config, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_EQ(run->spill.partition_paths.size(), row.k);
    ASSERT_EQ(row.files.size(), row.k);
    for (PartitionId p = 0; p < row.k; ++p) {
      const uint64_t digest = FileDigest(run->spill.partition_paths[p]);
      EXPECT_EQ(digest, row.files[p])
          << "k=" << row.k << " p=" << p << " digest=0x" << std::hex
          << digest;
    }
    RemoveSpilledFiles(run->spill);
  }
}

TEST(WriterBytesTest, WholeFileMatchesCapturedDigest) {
  const std::string path = testing::TempDir() + "/whole_digest.bin";
  ASSERT_TRUE(io::WriteEdgeFile(path, DigestGraph(),
                                io::EdgeFileFormat::kCompressedBlocks)
                  .ok());
  EXPECT_EQ(FileDigest(path), kWholeFileDigest);
  std::remove(path.c_str());
}

TEST(PartitionedWriterTest, EndToEndWithPartitioner) {
  RmatConfig rmat;
  rmat.scale = 10;
  const auto edges = GenerateRmat(rmat);
  InMemoryEdgeStream stream(edges);
  const std::string prefix = testing::TempDir() + "/writer_e2e";

  PartitionedWriter writer(prefix, 4);
  ASSERT_TRUE(writer.status().ok());
  TwoPhasePartitioner partitioner;
  PartitionConfig config;
  config.num_partitions = 4;
  ASSERT_TRUE(partitioner.Partition(stream, config, writer, nullptr).ok());
  ASSERT_TRUE(writer.Finish().ok());

  uint64_t total = 0;
  for (PartitionId p = 0; p < 4; ++p) {
    auto part = io::ReadEdgeFile(writer.PartitionPath(p));
    ASSERT_TRUE(part.ok());
    total += part->size();
    std::remove(writer.PartitionPath(p).c_str());
  }
  EXPECT_EQ(total, edges.size());
  std::remove((prefix + ".manifest").c_str());
}

TEST(SpillRunTest, SpilledFilesMatchKeptPartitionsExactly) {
  // One run, two sinks: the EdgeListSink materialization and the
  // PartitionedWriter spill see the same assignments, so the files on
  // disk must read back as exactly the kept partitions.
  RmatConfig rmat;
  rmat.scale = 10;
  const auto edges = GenerateRmat(rmat);
  InMemoryEdgeStream stream(edges);
  TwoPhasePartitioner partitioner;
  PartitionConfig config;
  config.num_partitions = 4;
  RunOptions options;
  options.keep_partitions = true;
  options.spill_dir = testing::TempDir() + "/spill_run";
  options.spill_stem = "rmat";
  auto run = RunPartitioner(partitioner, stream, config, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  ASSERT_TRUE(run->spill.spilled());
  ASSERT_EQ(run->spill.partition_paths.size(), 4u);
  uint64_t total = 0;
  for (PartitionId p = 0; p < 4; ++p) {
    auto part = io::ReadEdgeFile(run->spill.partition_paths[p]);
    ASSERT_TRUE(part.ok());
    EXPECT_EQ(*part, run->partitions[p]) << "partition " << p;
    EXPECT_EQ(run->spill.edge_counts[p], part->size());
    total += part->size();
  }
  EXPECT_EQ(total, edges.size());
  // The spill is block-compressed: the device sees strictly fewer
  // bytes than the decoded edge volume (plus per-file framing, far
  // smaller than the savings on any real graph).
  EXPECT_GT(run->spill.bytes_written, 0u);
  EXPECT_LT(run->spill.bytes_written, edges.size() * sizeof(Edge));

  RemoveSpilledFiles(run->spill);
}

}  // namespace
}  // namespace tpsl
