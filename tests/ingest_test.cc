#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "graph/binary_edge_list.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "ingest/catalog.h"
#include "ingest/checksum.h"
#include "ingest/external_generator.h"
#include "ingest/prefetching_edge_stream.h"
#include "ingest/scenario_runner.h"
#include "io/edge_file.h"
#include "io/throttled_edge_stream.h"

namespace tpsl {
namespace ingest {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// A per-test scratch directory (removed on destruction) so catalog
/// tests cannot see each other's cached datasets.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(TempPath(name + "." + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

DatasetRecipe SmallRmatRecipe() {
  DatasetRecipe recipe;
  recipe.name = "tiny_rmat";
  recipe.kind = "rmat";
  recipe.scale = 10;
  recipe.edge_factor = 8;
  recipe.skew = 0.57;
  recipe.seed = 7;
  return recipe;
}

// --- chunked generator <-> in-memory generator equivalence ----------------

TEST(ChunkedGeneratorTest, RmatChunkedMatchesInMemoryAcrossChunkSizes) {
  RmatConfig config;
  config.scale = 10;
  config.edge_factor = 4;
  config.seed = 123;
  const std::vector<Edge> expected = GenerateRmat(config);
  for (const size_t chunk : {1ul, 7ul, 1024ul, 1ul << 20}) {
    std::vector<Edge> got;
    size_t max_chunk = 0;
    GenerateRmatChunked(config, chunk,
                        [&](const Edge* edges, size_t count) {
                          got.insert(got.end(), edges, edges + count);
                          max_chunk = std::max(max_chunk, count);
                        });
    EXPECT_EQ(got, expected) << "chunk=" << chunk;
    EXPECT_LE(max_chunk, chunk);
  }
}

TEST(ChunkedGeneratorTest, ErdosRenyiChunkedMatchesInMemory) {
  ErdosRenyiConfig config;
  config.num_vertices = 1 << 10;
  config.num_edges = 5000;
  config.seed = 99;
  const std::vector<Edge> expected = GenerateErdosRenyi(config);
  std::vector<Edge> got;
  GenerateErdosRenyiChunked(config, 333,
                            [&](const Edge* edges, size_t count) {
                              got.insert(got.end(), edges, edges + count);
                            });
  EXPECT_EQ(got, expected);
}

TEST(ChunkedGeneratorTest, PlantedPartitionChunkedMatchesInMemory) {
  PlantedPartitionConfig config;
  config.num_vertices = 1 << 10;
  config.num_edges = 5000;
  config.num_communities = 16;
  config.seed = 5;
  const std::vector<Edge> expected = GeneratePlantedPartition(config);
  std::vector<Edge> got;
  GeneratePlantedPartitionChunked(config, 100,
                                  [&](const Edge* edges, size_t count) {
                                    got.insert(got.end(), edges,
                                               edges + count);
                                  });
  EXPECT_EQ(got, expected);
}

// --- external generation --------------------------------------------------

TEST(ExternalGeneratorTest, FileMatchesInMemoryGeneration) {
  // The on-disk dataset must be byte-identical to what the in-memory
  // generator + one-shot writer would have produced.
  const DatasetRecipe recipe = SmallRmatRecipe();
  ScratchDir dir("extgen_match");
  const std::string path = dir.path() + "/tiny.bin";
  auto result = GenerateDatasetFile(recipe, path, /*chunk_edges=*/512);
  ASSERT_TRUE(result.ok()) << result.status();

  RmatConfig config;
  config.scale = recipe.scale;
  config.edge_factor = recipe.edge_factor;
  config.a = recipe.skew;
  config.b = (1.0 - recipe.skew) / 3.0;
  config.c = (1.0 - recipe.skew) / 3.0;
  config.seed = recipe.seed;
  const std::vector<Edge> expected = GenerateRmat(config);

  auto read_back = io::ReadEdgeFile(path);
  ASSERT_TRUE(read_back.ok()) << read_back.status();
  EXPECT_EQ(*read_back, expected);
  EXPECT_EQ(result->num_edges, expected.size());
  EXPECT_EQ(result->file_bytes, expected.size() * sizeof(Edge));

  // The checksum computed while writing matches a from-scratch pass
  // over the final file.
  auto checksum = ChecksumFile(path);
  ASSERT_TRUE(checksum.ok()) << checksum.status();
  EXPECT_EQ(*checksum, result->checksum);
}

TEST(ExternalGeneratorTest, MemoryBoundedByChunkBuffer) {
  // A dataset far larger than the chunk buffer: the writer's entire
  // working set is the one chunk buffer it reports, so datasets of any
  // size — multi-GB included — generate in bounded memory.
  DatasetRecipe recipe = SmallRmatRecipe();
  recipe.name = "bounded";
  recipe.scale = 13;       // ~65k edges * 8 B = ~512 KiB of output...
  recipe.edge_factor = 8;
  ScratchDir dir("extgen_bounded");
  const std::string path = dir.path() + "/bounded.bin";
  const size_t chunk_edges = 1024;  // ...through a 8 KiB buffer
  auto result = GenerateDatasetFile(recipe, path, chunk_edges);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->peak_buffer_bytes, chunk_edges * sizeof(Edge));
  EXPECT_GT(result->file_bytes, 10 * result->peak_buffer_bytes)
      << "dataset must dwarf the buffer for this test to mean anything";
}

TEST(ExternalGeneratorTest, RejectsUnknownKindAndBadParams) {
  ScratchDir dir("extgen_bad");
  DatasetRecipe recipe = SmallRmatRecipe();
  recipe.kind = "barabasi_albert";  // not streamable
  EXPECT_EQ(GenerateDatasetFile(recipe, dir.path() + "/x.bin").status().code(),
            StatusCode::kInvalidArgument);

  recipe = SmallRmatRecipe();
  recipe.kind = "planted_partition";
  recipe.communities = 1;
  EXPECT_EQ(GenerateDatasetFile(recipe, dir.path() + "/y.bin").status().code(),
            StatusCode::kInvalidArgument);
}

// --- catalog --------------------------------------------------------------

CatalogEntry UnpinnedEntry() {
  CatalogEntry entry;
  entry.recipe = SmallRmatRecipe();
  return entry;
}

TEST(CatalogTest, RoundtripsThroughJsonFile) {
  ScratchDir dir("catalog_roundtrip");
  Catalog catalog;
  catalog.entries.push_back(UnpinnedEntry());
  catalog.entries[0].expected_edges = 42;
  catalog.entries[0].expected_checksum = "fnv1a64:0123456789abcdef";
  const std::string path = dir.path() + "/catalog.json";
  ASSERT_TRUE(SaveCatalog(catalog, path).ok());
  auto loaded = LoadCatalog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->entries.size(), 1u);
  EXPECT_EQ(loaded->entries[0], catalog.entries[0]);
}

TEST(CatalogTest, GetOrGenerateCachesSecondCall) {
  ScratchDir dir("catalog_cache");
  const CatalogEntry entry = UnpinnedEntry();
  auto first = EnsureDataset(entry, dir.path());
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->generated);

  auto second = EnsureDataset(entry, dir.path());
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_FALSE(second->generated) << "second call must hit the cache";
  EXPECT_EQ(second->checksum, first->checksum);
  EXPECT_EQ(second->num_edges, first->num_edges);
}

TEST(CatalogTest, RecipeDriftRegenerates) {
  ScratchDir dir("catalog_drift");
  CatalogEntry entry = UnpinnedEntry();
  auto first = EnsureDataset(entry, dir.path());
  ASSERT_TRUE(first.ok()) << first.status();

  entry.recipe.seed += 1;  // same name, different content
  auto second = EnsureDataset(entry, dir.path());
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->generated) << "changed recipe must regenerate";
  EXPECT_NE(second->checksum, first->checksum);
}

TEST(CatalogTest, VerifyDetectsCorruptedFile) {
  ScratchDir dir("catalog_corrupt");
  CatalogEntry entry = UnpinnedEntry();
  auto generated = EnsureDataset(entry, dir.path());
  ASSERT_TRUE(generated.ok()) << generated.status();
  entry.expected_edges = generated->num_edges;
  entry.expected_checksum = generated->checksum;
  ASSERT_TRUE(VerifyDataset(entry, dir.path()).ok());

  // Flip one byte in the middle of the file; size is unchanged, so
  // only the checksum can catch it.
  const std::string path = DatasetPath(dir.path(), entry.recipe.name);
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fseek(file, static_cast<long>(generated->file_bytes / 2),
                       SEEK_SET),
            0);
  ASSERT_EQ(std::fputc(0x5a, file), 0x5a);
  ASSERT_EQ(std::fclose(file), 0);

  const Status status = VerifyDataset(entry, dir.path());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST(CatalogTest, PinnedChecksumMismatchFailsGeneration) {
  ScratchDir dir("catalog_pin_mismatch");
  CatalogEntry entry = UnpinnedEntry();
  entry.expected_checksum = "fnv1a64:ffffffffffffffff";  // wrong on purpose
  const auto result = EnsureDataset(entry, dir.path());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// --- prefetching reader ---------------------------------------------------

std::vector<Edge> PatternEdges(size_t n) {
  std::vector<Edge> edges;
  edges.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    edges.push_back(Edge{i, i * 31 + 5});
  }
  return edges;
}

TEST(PrefetchingEdgeStreamTest, MatchesInnerAcrossBufferSizes) {
  const std::vector<Edge> edges = PatternEdges(10000);
  const std::string path = TempPath("prefetch_match.bin");
  ASSERT_TRUE(WriteBinaryEdgeList(path, edges).ok());
  for (const size_t buffer_edges : {1ul, 3ul, 64ul, 4096ul, 65536ul}) {
    auto file = BinaryFileEdgeStream::Open(path, 128);
    ASSERT_TRUE(file.ok());
    PrefetchingEdgeStream stream(std::move(*file), buffer_edges);
    EXPECT_EQ(stream.NumEdgesHint(), edges.size());
    std::vector<Edge> got;
    ASSERT_TRUE(
        ForEachEdge(stream, [&](const Edge& e) { got.push_back(e); }).ok());
    EXPECT_EQ(got, edges) << "buffer_edges=" << buffer_edges;
  }
  std::remove(path.c_str());
}

TEST(PrefetchingEdgeStreamTest, MultiplePassesAndByteAccounting) {
  const std::vector<Edge> edges = PatternEdges(5000);
  const std::string path = TempPath("prefetch_passes.bin");
  ASSERT_TRUE(WriteBinaryEdgeList(path, edges).ok());
  auto file = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(file.ok());
  PrefetchingEdgeStream stream(std::move(*file), 512);
  for (int pass = 0; pass < 3; ++pass) {
    uint64_t count = 0;
    ASSERT_TRUE(ForEachEdge(stream, [&](const Edge&) { ++count; }).ok());
    EXPECT_EQ(count, edges.size());
    EXPECT_EQ(stream.bytes_this_pass(), edges.size() * sizeof(Edge));
  }
  EXPECT_EQ(stream.passes(), 3u);
  EXPECT_EQ(stream.bytes_read(), 3 * edges.size() * sizeof(Edge));
  std::remove(path.c_str());
}

TEST(PrefetchingEdgeStreamTest, ResetMidStreamRestarts) {
  const std::vector<Edge> edges = PatternEdges(1000);
  const std::string path = TempPath("prefetch_reset.bin");
  ASSERT_TRUE(WriteBinaryEdgeList(path, edges).ok());
  auto file = BinaryFileEdgeStream::Open(path, 64);
  ASSERT_TRUE(file.ok());
  PrefetchingEdgeStream stream(std::move(*file), 128);

  ASSERT_TRUE(stream.Reset().ok());
  Edge buffer[300];
  ASSERT_EQ(stream.Next(buffer, 300), 300u);
  // Abandon the pass mid-flight; the next pass must start clean.
  std::vector<Edge> got;
  ASSERT_TRUE(
      ForEachEdge(stream, [&](const Edge& e) { got.push_back(e); }).ok());
  EXPECT_EQ(got, edges);
  std::remove(path.c_str());
}

TEST(PrefetchingEdgeStreamTest, ComposesWithThrottledAccounting) {
  // Throttled-over-prefetched: the virtual-I/O account sees exactly
  // the bytes the prefetcher delivered.
  const std::vector<Edge> edges = PatternEdges(2000);
  const std::string path = TempPath("prefetch_throttle.bin");
  ASSERT_TRUE(WriteBinaryEdgeList(path, edges).ok());
  auto file = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(file.ok());
  PrefetchingEdgeStream prefetched(std::move(*file), 256);
  ThrottledEdgeStream throttled(&prefetched, kHddProfile);
  uint64_t count = 0;
  ASSERT_TRUE(ForEachEdge(throttled, [&](const Edge&) { ++count; }).ok());
  EXPECT_EQ(count, edges.size());
  EXPECT_EQ(throttled.bytes_read(), edges.size() * sizeof(Edge));
  EXPECT_EQ(throttled.bytes_read(), prefetched.bytes_read());
  EXPECT_GT(throttled.SimulatedIoSeconds(), 0.0);
  std::remove(path.c_str());
}

TEST(PrefetchingEdgeStreamTest, WorksOverInMemoryStream) {
  const std::vector<Edge> edges = PatternEdges(777);
  PrefetchingEdgeStream stream(
      std::make_unique<InMemoryEdgeStream>(edges), 100);
  std::vector<Edge> got;
  ASSERT_TRUE(
      ForEachEdge(stream, [&](const Edge& e) { got.push_back(e); }).ok());
  EXPECT_EQ(got, edges);
}

// --- sticky I/O errors (satellite: fread error surfacing) -----------------

TEST(BinaryFileEdgeStreamHealthTest, TruncationAfterOpenIsAnError) {
  const std::vector<Edge> edges = PatternEdges(1000);
  const std::string path = TempPath("truncate_after_open.bin");
  ASSERT_TRUE(WriteBinaryEdgeList(path, edges).ok());
  auto stream = BinaryFileEdgeStream::Open(path, 64);
  ASSERT_TRUE(stream.ok());
  // Shrink the file behind the open stream's back: fread just hits a
  // clean-looking early EOF, which used to yield a silently shorter
  // graph.
  ASSERT_EQ(::truncate(path.c_str(), 100 * sizeof(Edge)), 0);

  uint64_t count = 0;
  const Status status =
      ForEachEdge(**stream, [&](const Edge&) { ++count; });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_LE(count, 100u);
  // Sticky: the stream refuses another pass rather than serving the
  // shorter graph.
  EXPECT_FALSE((*stream)->Reset().ok());
  EXPECT_FALSE((*stream)->Health().ok());
  std::remove(path.c_str());
}

TEST(BinaryFileEdgeStreamHealthTest, PrefetcherPropagatesInnerFailure) {
  const std::vector<Edge> edges = PatternEdges(1000);
  const std::string path = TempPath("truncate_prefetch.bin");
  ASSERT_TRUE(WriteBinaryEdgeList(path, edges).ok());
  auto file = BinaryFileEdgeStream::Open(path, 64);
  ASSERT_TRUE(file.ok());
  PrefetchingEdgeStream stream(std::move(*file), 128);
  ASSERT_EQ(::truncate(path.c_str(), 100 * sizeof(Edge)), 0);

  uint64_t count = 0;
  const Status status = ForEachEdge(stream, [&](const Edge&) { ++count; });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(BinaryFileEdgeStreamHealthTest, HealthyStreamStaysOk) {
  const std::vector<Edge> edges = PatternEdges(100);
  const std::string path = TempPath("healthy.bin");
  ASSERT_TRUE(WriteBinaryEdgeList(path, edges).ok());
  auto stream = BinaryFileEdgeStream::Open(path);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(ForEachEdge(**stream, [](const Edge&) {}).ok());
  EXPECT_TRUE((*stream)->Health().ok());
  std::remove(path.c_str());
}

// --- disk scenario records ------------------------------------------------

/// The obs snapshot in a record belongs to the repeat whose timing the
/// record reports: the spill counter of a three-repeat run equals the
/// bytes one repeat wrote, not three times that.
TEST(DiskScenarioTest, ObsMetricsAreScopedToTheReportedRepeat) {
  ScratchDir dir("disk_scenario_obs");
  Catalog catalog;
  catalog.entries.push_back(UnpinnedEntry());
  ScenarioRunContext context;
  context.catalog_path = dir.path() + "/catalog.json";
  context.dataset_dir = dir.path() + "/datasets";
  context.spill_dir = dir.path() + "/spill";
  context.options.repeats = 3;
  ASSERT_TRUE(SaveCatalog(catalog, context.catalog_path).ok());

  benchkit::Scenario scenario;
  scenario.name = "tiny_spill";
  scenario.partitioner = "2PS-L";
  scenario.dataset = catalog.entries[0].recipe.name;
  scenario.k = 8;
  scenario.kind = benchkit::ScenarioKind::kDiskPartition;
  scenario.spill = true;
  auto record = RunScenarioWithIngest(scenario, context);
  ASSERT_TRUE(record.ok()) << record.status();
  const double* written = record->FindMetric("spill_bytes_written");
  const double* counted = record->FindMetric("obs/spill.bytes_written");
  ASSERT_NE(written, nullptr);
  ASSERT_NE(counted, nullptr);
  EXPECT_GT(*written, 0.0);
  EXPECT_EQ(*counted, *written);
}

/// The same for an ingest-scan record: its prefetch counters describe
/// the one scan whose time it reports, with no other repeat folded in.
TEST(DiskScenarioTest, IngestScanObsMetricsAreScopedToTheReportedRepeat) {
  ScratchDir dir("ingest_scan_obs");
  Catalog catalog;
  catalog.entries.push_back(UnpinnedEntry());
  ScenarioRunContext context;
  context.catalog_path = dir.path() + "/catalog.json";
  context.dataset_dir = dir.path() + "/datasets";
  context.options.repeats = 3;
  ASSERT_TRUE(SaveCatalog(catalog, context.catalog_path).ok());

  benchkit::Scenario scenario;
  scenario.name = "tiny_scan";
  scenario.partitioner = "scan";
  scenario.dataset = catalog.entries[0].recipe.name;
  scenario.kind = benchkit::ScenarioKind::kIngestScan;
  auto record = RunScenarioWithIngest(scenario, context);
  ASSERT_TRUE(record.ok()) << record.status();
  const double* edges = record->FindMetric("num_edges");
  const double* prefetched = record->FindMetric("obs/ingest.edges_prefetched");
  ASSERT_NE(edges, nullptr);
  ASSERT_NE(prefetched, nullptr);
  EXPECT_GT(*edges, 0.0);
  EXPECT_EQ(*prefetched, *edges);
}

/// A disk record's quality comes from the repeat its obs snapshot
/// describes; at four workers placement depends on scheduling, so a
/// value from another repeat would show as a mismatch.
TEST(DiskScenarioTest, QualityComesFromTheReportedRepeat) {
  ScratchDir dir("disk_scenario_quality");
  Catalog catalog;
  catalog.entries.push_back(UnpinnedEntry());
  ScenarioRunContext context;
  context.catalog_path = dir.path() + "/catalog.json";
  context.dataset_dir = dir.path() + "/datasets";
  context.options.repeats = 3;
  ASSERT_TRUE(SaveCatalog(catalog, context.catalog_path).ok());

  for (const uint32_t threads : {1u, 4u}) {
    benchkit::Scenario scenario;
    scenario.name = "tiny_partition";
    scenario.partitioner = threads == 1 ? "2PS-L" : "2PS-L(par)";
    scenario.dataset = catalog.entries[0].recipe.name;
    scenario.k = 8;
    scenario.threads = threads;
    scenario.kind = benchkit::ScenarioKind::kDiskPartition;
    auto record = RunScenarioWithIngest(scenario, context);
    ASSERT_TRUE(record.ok()) << record.status();
    EXPECT_EQ(record->threads, threads);
    const double* rf = record->FindMetric("replication_factor");
    const double* gauge = record->FindMetric("obs/quality.replication_factor");
    ASSERT_NE(rf, nullptr) << threads;
    ASSERT_NE(gauge, nullptr) << threads;
    EXPECT_EQ(*rf, *gauge) << threads;
  }
}

}  // namespace
}  // namespace ingest
}  // namespace tpsl
