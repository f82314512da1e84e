#ifndef TPSL_IO_EDGE_FILE_H_
#define TPSL_IO_EDGE_FILE_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/edge_stream.h"
#include "graph/types.h"
#include "util/status.h"

namespace tpsl {
namespace io {

/// The two on-disk edge formats the library reads and writes. Both
/// keep the ".bin" extension; readers tell them apart by the 8-byte
/// magic that opens a compressed file (a raw file's first 8 bytes are
/// an edge, and no realistic edge collides with the magic — it decodes
/// to first = 0x4c535054, a vertex id above 2^30, paired with a
/// specific second endpoint).
enum class EdgeFileFormat {
  kRaw = 0,               // headerless u32 pairs (the paper's format)
  kCompressedBlocks = 1,  // block-compressed (io/edge_block_format.h)
};

const char* EdgeFileFormatName(EdgeFileFormat format);

/// Determines the format of an existing file from its leading bytes.
StatusOr<EdgeFileFormat> SniffEdgeFileFormat(const std::string& path);

/// Opens `path` with the reader matching its sniffed format: a
/// BinaryFileEdgeStream for raw files, an MmapEdgeStream for
/// compressed ones. Callers that want raw reads prefetched use
/// ingest::OpenDatasetStream.
StatusOr<std::unique_ptr<EdgeStream>> OpenEdgeFile(const std::string& path);

/// Reads a whole file of either format into memory.
StatusOr<std::vector<Edge>> ReadEdgeFile(const std::string& path);

/// Writes `edges` to `path` in the requested format.
Status WriteEdgeFile(const std::string& path, const std::vector<Edge>& edges,
                     EdgeFileFormat format);

}  // namespace io
}  // namespace tpsl

#endif  // TPSL_IO_EDGE_FILE_H_
