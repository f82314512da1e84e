#include "io/edge_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "graph/binary_edge_list.h"
#include "io/compressed_edge_writer.h"
#include "io/edge_block_format.h"
#include "io/mmap_edge_stream.h"

namespace tpsl {
namespace io {

const char* EdgeFileFormatName(EdgeFileFormat format) {
  switch (format) {
    case EdgeFileFormat::kRaw:
      return "raw";
    case EdgeFileFormat::kCompressedBlocks:
      return "blocks1";
  }
  return "unknown";
}

StatusOr<EdgeFileFormat> SniffEdgeFileFormat(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("open failed: " + path + ": " +
                           std::strerror(errno));
  }
  char magic[8] = {0};
  const size_t read = std::fread(magic, 1, sizeof(magic), file);
  // A short read is EOF or an error (a directory opens but fails here).
  const bool failed = std::ferror(file) != 0;
  const int read_errno = errno;
  std::fclose(file);
  if (failed) {
    return Status::IoError("read failed: " + path + ": " +
                           std::strerror(read_errno));
  }
  // A shorter-than-magic file cannot be compressed; let the raw reader
  // judge it (an empty raw file is legal).
  if (read == sizeof(magic) && std::memcmp(magic, kEdgeFileMagic, 8) == 0) {
    return EdgeFileFormat::kCompressedBlocks;
  }
  return EdgeFileFormat::kRaw;
}

StatusOr<std::unique_ptr<EdgeStream>> OpenEdgeFile(const std::string& path) {
  TPSL_ASSIGN_OR_RETURN(const EdgeFileFormat format,
                        SniffEdgeFileFormat(path));
  if (format == EdgeFileFormat::kCompressedBlocks) {
    TPSL_ASSIGN_OR_RETURN(std::unique_ptr<MmapEdgeStream> stream,
                          MmapEdgeStream::Open(path));
    return std::unique_ptr<EdgeStream>(std::move(stream));
  }
  TPSL_ASSIGN_OR_RETURN(std::unique_ptr<BinaryFileEdgeStream> stream,
                        BinaryFileEdgeStream::Open(path));
  return std::unique_ptr<EdgeStream>(std::move(stream));
}

StatusOr<std::vector<Edge>> ReadEdgeFile(const std::string& path) {
  TPSL_ASSIGN_OR_RETURN(std::unique_ptr<EdgeStream> stream,
                        OpenEdgeFile(path));
  std::vector<Edge> edges;
  const uint64_t hint = stream->NumEdgesHint();
  edges.reserve(static_cast<size_t>(hint));
  TPSL_RETURN_IF_ERROR(
      ForEachEdge(*stream, [&edges](const Edge& e) { edges.push_back(e); }));
  return edges;
}

Status WriteEdgeFile(const std::string& path, const std::vector<Edge>& edges,
                     EdgeFileFormat format) {
  if (format == EdgeFileFormat::kRaw) {
    return WriteBinaryEdgeList(path, edges);
  }
  CompressedEdgeWriter writer(path);
  writer.Append(0, edges.data(), edges.size());
  return writer.Finish();
}

}  // namespace io
}  // namespace tpsl
