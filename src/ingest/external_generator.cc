#include "ingest/external_generator.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "graph/generators.h"
#include "ingest/checksum.h"
#include "io/compressed_edge_writer.h"
#include "io/edge_block_format.h"
#include "util/timer.h"

namespace tpsl {
namespace ingest {
namespace {

/// Sink that forwards chunks to fwrite + the running checksum. Errors
/// are latched (std::function sinks cannot return Status) and checked
/// once generation finishes.
class FileSink {
 public:
  explicit FileSink(std::FILE* file) : file_(file) {}

  void Consume(const Edge* edges, size_t count) {
    if (!status_.ok()) {
      return;  // already failed; drain the rest of the generation
    }
    const size_t written = std::fwrite(edges, sizeof(Edge), count, file_);
    if (written != count) {
      status_ = Status::IoError(std::string("short write: ") +
                                std::strerror(errno));
      return;
    }
    digest_ = io::Fnv1a64(edges, count * sizeof(Edge), digest_);
    num_edges_ += count;
  }

  const Status& status() const { return status_; }
  uint64_t num_edges() const { return num_edges_; }
  uint64_t digest() const { return digest_; }

 private:
  std::FILE* file_;
  Status status_;
  uint64_t digest_ = io::kFnv1a64OffsetBasis;
  uint64_t num_edges_ = 0;
};

Status RunGenerator(const DatasetRecipe& recipe, size_t chunk_edges,
                    const EdgeChunkSink& sink) {
  if (recipe.scale == 0 || recipe.scale > 30) {
    return Status::InvalidArgument("recipe '" + recipe.name +
                                   "': scale must be in [1, 30]");
  }
  if (recipe.kind == "rmat") {
    if (!(recipe.skew > 0.0 && recipe.skew < 1.0)) {
      return Status::InvalidArgument("recipe '" + recipe.name +
                                     "': rmat skew (a) must be in (0, 1)");
    }
    RmatConfig config;
    config.scale = recipe.scale;
    config.edge_factor = recipe.edge_factor;
    config.a = recipe.skew;
    config.b = (1.0 - recipe.skew) / 3.0;
    config.c = (1.0 - recipe.skew) / 3.0;
    config.seed = recipe.seed;
    GenerateRmatChunked(config, chunk_edges, sink);
    return Status::OK();
  }
  if (recipe.kind == "erdos_renyi") {
    ErdosRenyiConfig config;
    config.num_vertices = VertexId{1} << recipe.scale;
    config.num_edges = static_cast<uint64_t>(recipe.edge_factor)
                       << recipe.scale;
    config.seed = recipe.seed;
    GenerateErdosRenyiChunked(config, chunk_edges, sink);
    return Status::OK();
  }
  if (recipe.kind == "planted_partition") {
    if (recipe.communities < 2) {
      return Status::InvalidArgument(
          "recipe '" + recipe.name +
          "': planted_partition needs communities >= 2");
    }
    if (!(recipe.skew >= 0.0 && recipe.skew <= 1.0)) {
      return Status::InvalidArgument(
          "recipe '" + recipe.name +
          "': planted_partition skew (intra_fraction) must be in [0, 1]");
    }
    PlantedPartitionConfig config;
    config.num_vertices = VertexId{1} << recipe.scale;
    config.num_edges = static_cast<uint64_t>(recipe.edge_factor)
                       << recipe.scale;
    config.num_communities = recipe.communities;
    config.intra_fraction = recipe.skew;
    config.size_skew = 1.0;
    config.seed = recipe.seed;
    GeneratePlantedPartitionChunked(config, chunk_edges, sink);
    return Status::OK();
  }
  return Status::InvalidArgument(
      "recipe '" + recipe.name + "': unknown generator kind '" + recipe.kind +
      "' (streamable kinds: rmat, erdos_renyi, planted_partition)");
}

}  // namespace

bool IsStreamableKind(const std::string& kind) {
  return kind == "rmat" || kind == "erdos_renyi" ||
         kind == "planted_partition";
}

namespace {

/// Commits `tmp_path` into `path`, or cleans up on failure.
Status RenameOrRemove(const Status& status, const std::string& tmp_path,
                      const std::string& path) {
  if (!status.ok()) {
    std::remove(tmp_path.c_str());
    return status;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const Status rename_status = Status::IoError(
        "rename " + tmp_path + " -> " + path + ": " + std::strerror(errno));
    std::remove(tmp_path.c_str());
    return rename_status;
  }
  return Status::OK();
}

StatusOr<GenerateFileResult> GenerateRawFile(const DatasetRecipe& recipe,
                                             const std::string& path,
                                             size_t chunk_edges) {
  const std::string tmp_path = path + ".tmp";
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot open for writing: " + tmp_path + ": " +
                           std::strerror(errno));
  }

  WallTimer timer;
  FileSink sink(file);
  const Status generate_status = RunGenerator(
      recipe, chunk_edges,
      [&sink](const Edge* edges, size_t count) { sink.Consume(edges, count); });
  const int close_rc = std::fclose(file);

  Status status = generate_status;
  if (status.ok()) {
    status = sink.status();
  }
  if (status.ok() && close_rc != 0) {
    // The final flush inside fclose can fail (ENOSPC) even when every
    // fwrite succeeded.
    status = Status::IoError("close failed for " + tmp_path + ": " +
                             std::strerror(errno));
  }
  TPSL_RETURN_IF_ERROR(RenameOrRemove(status, tmp_path, path));

  GenerateFileResult result;
  result.num_edges = sink.num_edges();
  result.file_bytes = sink.num_edges() * sizeof(Edge);
  result.checksum = FormatChecksum(sink.digest());
  // The raw file *is* the edge bytes, so the two digests coincide.
  result.file_checksum = result.checksum;
  result.peak_buffer_bytes = chunk_edges * sizeof(Edge);
  result.generate_seconds = timer.ElapsedSeconds();
  return result;
}

StatusOr<GenerateFileResult> GenerateCompressedFile(
    const DatasetRecipe& recipe, const std::string& path, size_t chunk_edges) {
  const std::string tmp_path = path + ".tmp";
  io::CompressedEdgeWriter writer(tmp_path);

  WallTimer timer;
  Status status = writer.Health();
  if (status.ok()) {
    status = RunGenerator(recipe, chunk_edges,
                          [&writer](const Edge* edges, size_t count) {
                            writer.Append(0, edges, count);
                          });
  }
  // The writer tracks the logical (decoded-edge) digest itself; its
  // totals are final once Finish() has sealed the file.
  const Status finish_status = writer.Finish();
  if (status.ok()) {
    status = finish_status;
  }
  const uint64_t num_edges = writer.edges_written(0);
  const uint64_t file_bytes = writer.bytes_written();
  const uint64_t edge_digest = writer.edge_checksum(0);

  GenerateFileResult result;
  if (status.ok()) {
    // One buffered re-read (cache-warm) fingerprints the on-disk bytes
    // for the catalog's physical pin.
    auto file_checksum_or = ChecksumFile(tmp_path);
    if (!file_checksum_or.ok()) {
      status = file_checksum_or.status();
    } else {
      result.file_checksum = *file_checksum_or;
    }
  }
  TPSL_RETURN_IF_ERROR(RenameOrRemove(status, tmp_path, path));

  result.num_edges = num_edges;
  result.file_bytes = file_bytes;
  result.checksum = FormatChecksum(edge_digest);
  result.peak_buffer_bytes = chunk_edges * sizeof(Edge);
  result.generate_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

StatusOr<GenerateFileResult> GenerateDatasetFile(const DatasetRecipe& recipe,
                                                 const std::string& path,
                                                 size_t chunk_edges,
                                                 io::EdgeFileFormat format) {
  if (chunk_edges == 0) {
    return Status::InvalidArgument("chunk_edges must be positive");
  }
  return format == io::EdgeFileFormat::kCompressedBlocks
             ? GenerateCompressedFile(recipe, path, chunk_edges)
             : GenerateRawFile(recipe, path, chunk_edges);
}

}  // namespace ingest
}  // namespace tpsl
