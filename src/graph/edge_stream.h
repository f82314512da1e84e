#ifndef TPSL_GRAPH_EDGE_STREAM_H_
#define TPSL_GRAPH_EDGE_STREAM_H_

#include <cstddef>
#include <cstdint>

#include "graph/types.h"
#include "util/status.h"

namespace tpsl {

/// Byte-level I/O accounting for storage-backed streams. Decoded edges
/// are always 8 bytes each, but the bytes that actually cross the
/// storage boundary differ once files are block-compressed — and disk
/// bandwidth, not decoded volume, is what bounds an out-of-core run.
/// `disk_bytes_*` therefore count on-disk (possibly compressed) bytes;
/// the prefetching wrapper forwards its inner stream's account instead
/// of re-deriving it from delivered edge counts. The storage cost model
/// (io/storage_profile.h) prices this account.
struct StreamIoStats {
  /// False for in-memory streams; their disk counters stay zero.
  bool disk_backed = false;
  /// On-disk bytes consumed since the last Reset(). Updated at batch
  /// (or block) granularity, so mid-pass reads lag delivery slightly;
  /// after a full pass the value equals the file bytes of that pass.
  uint64_t disk_bytes_this_pass = 0;
  /// On-disk bytes consumed across all passes.
  uint64_t disk_bytes_total = 0;
  /// Number of Reset() calls (≈ streaming passes started).
  uint64_t passes = 0;
};

/// Sequential, restartable edge stream — the out-of-core access model
/// of the paper. A stream can be consumed any number of times; each
/// pass starts with Reset() and pulls batches with Next() until it
/// returns 0. Implementations: in-memory vectors, raw and compressed
/// edge files, and a prefetching wrapper over any of them.
///
/// Streaming partitioners in this library interact with graphs only
/// through this interface, which keeps them honest: no random access,
/// no edge-set materialization.
class EdgeStream {
 public:
  virtual ~EdgeStream() = default;

  /// Rewinds the stream to the beginning for another pass.
  virtual Status Reset() = 0;

  /// Fills up to `capacity` edges into `out`; returns the number of
  /// edges delivered, 0 at end of stream.
  virtual size_t Next(Edge* out, size_t capacity) = 0;

  /// Total number of edges in the stream, if known up front (binary
  /// files and in-memory streams know it). Returns 0 when unknown.
  virtual uint64_t NumEdgesHint() const { return 0; }

  /// Sticky stream health. Next() has no error channel (it returns a
  /// count), so implementations that can fail mid-pass — file streams
  /// hitting a read error or a truncated file — latch the failure here
  /// and return 0 from Next() thereafter, making the early end of
  /// stream distinguishable from EOF. ForEachEdge checks it after
  /// every pass; consumers with manual Next() loops must do the same.
  virtual Status Health() const { return Status::OK(); }

  /// I/O accounting for this stream (see StreamIoStats). In-memory
  /// streams keep the default all-zero stats.
  virtual StreamIoStats Io() const { return {}; }
};

/// Optional capability interface for streams whose backing file is
/// made of independently decodable compressed blocks. A parallel
/// driver (exec/ParallelForEdges) can pull raw encoded blocks here and
/// decode them in worker threads, so the decompression cost scales
/// with the worker count instead of serializing on the reader.
///
/// NextEncodedBlock() shares the pass cursor with Next(): a pass uses
/// one access mode or the other, never both, and either is restarted
/// by Reset(). DecodeBlock() must be safe to call concurrently from
/// multiple threads on distinct blocks.
class BlockEdgeStream {
 public:
  /// A view of one encoded block (header + payload) inside the backing
  /// file. Valid until the next Reset() of the owning stream.
  struct EncodedBlock {
    const void* data = nullptr;
    size_t bytes = 0;
    uint32_t num_edges = 0;
  };

  virtual ~BlockEdgeStream() = default;

  /// Upper bound on edges per block — the decode-buffer size workers
  /// must provision.
  virtual uint32_t MaxBlockEdges() const = 0;

  /// Hands out the next encoded block of the current pass; returns
  /// false at end of stream (check the stream's Health() afterwards).
  virtual bool NextEncodedBlock(EncodedBlock* out) = 0;

  /// Decodes `block` into `out` (block.num_edges edges), verifying the
  /// block checksum. Thread-safe.
  virtual Status DecodeBlock(const EncodedBlock& block, Edge* out) const = 0;
};

/// Convenience: performs one full pass, invoking `fn(edge)` per edge.
/// Uses an internal batch buffer so virtual-call overhead is amortized.
template <typename Fn>
Status ForEachEdge(EdgeStream& stream, Fn&& fn) {
  TPSL_RETURN_IF_ERROR(stream.Reset());
  constexpr size_t kBatch = 4096;
  Edge buffer[kBatch];
  size_t n;
  while ((n = stream.Next(buffer, kBatch)) > 0) {
    for (size_t i = 0; i < n; ++i) {
      fn(buffer[i]);
    }
  }
  // A failed stream ends early and looks like EOF above; surface it.
  return stream.Health();
}

}  // namespace tpsl

#endif  // TPSL_GRAPH_EDGE_STREAM_H_
