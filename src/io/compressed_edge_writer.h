#ifndef TPSL_IO_COMPRESSED_EDGE_WRITER_H_
#define TPSL_IO_COMPRESSED_EDGE_WRITER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/types.h"
#include "io/edge_block_format.h"
#include "util/status.h"

namespace tpsl {
namespace obs {
class Histogram;
}  // namespace obs

namespace io {

/// Streaming writer for the compressed edge-block format
/// (io/edge_block_format.h) over one or more files that share one block
/// capacity: the one-file writer behind WriteEdgeFile and the ingest
/// generator, and the k spill files behind PartitionedWriter.
///
/// Append() only copies edges into the file's current raw block. A full
/// block is swapped for a free one from a small shared pool and queued.
/// One background thread takes the queue in FIFO order, so each file's
/// blocks land in order: it folds the block into that file's FNV-1a
/// digest of the decoded edge bytes (the catalog's logical checksum),
/// encodes it into its own buffer, fwrites it and returns the block to
/// the pool. Finish() queues the tail blocks, joins the thread, seals
/// every file with its trailer and closes it.
///
/// Open/write/close failures latch into sticky Health() and an atomic
/// flag the per-edge path reads: Append() becomes a no-op once
/// unhealthy and Finish() reports the first error.
class CompressedEdgeWriter {
 public:
  /// Opens (truncates) every path and writes its header. Failures latch
  /// into Health(); check it before appending.
  CompressedEdgeWriter(const std::vector<std::string>& paths,
                       uint32_t block_edges);
  /// One file with the whole-file block size.
  explicit CompressedEdgeWriter(const std::string& path)
      : CompressedEdgeWriter(std::vector<std::string>{path},
                             kDefaultBlockEdges) {}

  /// Drains the queue and closes every file. Prefer calling Finish()
  /// explicitly: a file abandoned without Finish() has no trailer and
  /// will not open.
  ~CompressedEdgeWriter();

  CompressedEdgeWriter(const CompressedEdgeWriter&) = delete;
  CompressedEdgeWriter& operator=(const CompressedEdgeWriter&) = delete;

  /// Appends `count` edges to file `file`. One appending thread at a
  /// time.
  void Append(size_t file, const Edge* edges, size_t count) {
    if (finished_ || failed_.load(std::memory_order_relaxed)) {
      return;
    }
    File& f = files_[file];
    f.edges += count;
    for (size_t i = 0; i < count; ++i) {
      f.block[f.fill++] = edges[i];
      if (f.fill == block_edges_) {
        QueueBlock(file, /*replace=*/true);
      }
    }
  }

  /// Flushes the tail blocks, writes every trailer and closes every
  /// file. Exactly once; returns the sticky health (first error wins).
  /// Records one sample per sealed file (trailer write plus close) into
  /// `seal_seconds` when given.
  Status Finish(obs::Histogram* seal_seconds = nullptr);
  bool finished() const { return finished_; }

  /// Sticky writer health: open/write/close errors observed so far.
  Status Health() const;

  /// Edges appended to `file` so far.
  uint64_t edges_written(size_t file) const { return files_[file].edges; }

  // The writer thread folds and encodes queued blocks, so the next two
  // are final only after Finish().

  /// Compressed bytes of every file: headers, blocks and trailers.
  uint64_t bytes_written() const { return bytes_written_; }
  /// FNV-1a 64 digest of the decoded edge bytes of `file`.
  uint64_t edge_checksum(size_t file) const { return files_[file].checksum; }

  /// Resident state: one stdio buffer per open file, the raw blocks
  /// (one per file plus the pool) and the encode buffer.
  uint64_t StateBytes() const;

 private:
  struct File {
    std::FILE* stream = nullptr;
    Edge* block = nullptr;  // current raw block
    size_t fill = 0;
    uint64_t edges = 0;
    uint64_t checksum = kFnv1a64OffsetBasis;  // writer thread until Finish
  };
  struct Pending {
    size_t file;
    Edge* block;
    size_t count;
  };

  /// Queues `file`'s current block; with `replace`, waits for a free
  /// pool block to continue appending into.
  void QueueBlock(size_t file, bool replace);
  void WriterLoop();
  void StopWriterThread();
  void Fail(Status status);

  const std::vector<std::string> paths_;
  const size_t block_edges_;
  std::vector<File> files_;
  std::vector<Edge> blocks_;      // backing store of every raw block
  std::vector<uint8_t> encoded_;  // the writer thread's encode buffer
  uint64_t bytes_written_ = 0;
  bool finished_ = false;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable free_cv_;
  std::vector<Edge*> free_blocks_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  Status status_;  // sticky; guarded by mutex_
  /// Lock-free mirror of "status_ is non-OK" for the per-edge path.
  std::atomic<bool> failed_{false};
  std::thread writer_;
};

}  // namespace io
}  // namespace tpsl

#endif  // TPSL_IO_COMPRESSED_EDGE_WRITER_H_
