#ifndef TPSL_GRAPH_BINARY_EDGE_LIST_H_
#define TPSL_GRAPH_BINARY_EDGE_LIST_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "graph/edge_stream.h"
#include "graph/types.h"
#include "util/status.h"

namespace tpsl {

/// On-disk format used throughout the paper's evaluation: a raw
/// little-endian sequence of (uint32 first, uint32 second) pairs with
/// no header. File size must be a multiple of 8 bytes.
///
/// WriteBinaryEdgeList writes a whole file (io::ReadEdgeFile reads
/// one back); BinaryFileEdgeStream streams them with a bounded read
/// buffer, which is what the out-of-core partitioners use.
Status WriteBinaryEdgeList(const std::string& path,
                           const std::vector<Edge>& edges);

/// Buffered, restartable file-backed edge stream. Memory footprint is
/// a single fixed buffer regardless of graph size.
class BinaryFileEdgeStream : public EdgeStream {
 public:
  /// Opens `path` and validates its size. `buffer_edges` controls the
  /// read-buffer size (default 1 MiB of edges).
  static StatusOr<std::unique_ptr<BinaryFileEdgeStream>> Open(
      const std::string& path, size_t buffer_edges = 128 * 1024);

  ~BinaryFileEdgeStream() override;

  BinaryFileEdgeStream(const BinaryFileEdgeStream&) = delete;
  BinaryFileEdgeStream& operator=(const BinaryFileEdgeStream&) = delete;

  Status Reset() override;
  size_t Next(Edge* out, size_t capacity) override;
  uint64_t NumEdgesHint() const override { return num_edges_; }

  /// Sticky I/O state: a read error (ferror) or a file that ends short
  /// of the edge count observed at Open() — e.g. truncated under us —
  /// latches an error here. Next() then returns 0 and Reset() refuses
  /// to restart, so no consumer can mistake a failing file for a
  /// smaller graph.
  Status Health() const override { return status_; }

  /// Raw files read exactly 8 bytes per delivered edge.
  StreamIoStats Io() const override {
    StreamIoStats io;
    io.disk_backed = true;
    io.disk_bytes_this_pass = pass_delivered_ * sizeof(Edge);
    io.disk_bytes_total = total_delivered_ * sizeof(Edge);
    io.passes = passes_;
    return io;
  }

 private:
  BinaryFileEdgeStream(std::FILE* file, uint64_t num_edges,
                       size_t buffer_edges);

  std::FILE* file_;
  uint64_t num_edges_;
  std::vector<Edge> buffer_;
  size_t buffer_filled_ = 0;
  size_t buffer_pos_ = 0;
  /// Edges delivered since the last Reset(); checked against
  /// num_edges_ at EOF to detect truncation fread cannot see.
  uint64_t pass_delivered_ = 0;
  uint64_t total_delivered_ = 0;
  uint64_t passes_ = 0;
  Status status_;
};

}  // namespace tpsl

#endif  // TPSL_GRAPH_BINARY_EDGE_LIST_H_
