#ifndef TPSL_IO_MMAP_EDGE_STREAM_H_
#define TPSL_IO_MMAP_EDGE_STREAM_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/edge_stream.h"
#include "graph/types.h"
#include "io/edge_block_format.h"
#include "util/status.h"

namespace tpsl {
namespace io {

/// Zero-copy reader for the compressed edge-block format: maps the
/// file (PROT_READ, advised POSIX_MADV_SEQUENTIAL) and decodes blocks
/// straight out of the mapping — no read syscalls, no staging copy of
/// the compressed bytes, and no thread of its own.
///
/// Two access modes share one pass cursor:
///  - synchronous Next(): blocks decode inline on the caller's thread
///    into one block-sized buffer.
///  - block-at-a-time (BlockEdgeStream): ParallelForEdges pulls raw
///    encoded blocks and decodes them in its worker threads.
///
/// Consumed map regions are released with madvise(MADV_DONTNEED) every
/// 8 MiB, and the rest of the file when a pass ends, so resident memory
/// stays bounded by that window instead of growing toward the file
/// size, and a finished pass leaves nothing mapped behind — mapped
/// pages count against the out-of-core RSS gate just like heap does.
/// (The page cache keeps the pages, so later passes refault cheaply.)
///
/// Corrupt blocks (checksum/bounds) and truncated files latch a sticky
/// error in Health(), and a finished pass whose decoded edge count
/// disagrees with the trailer does the same.
class MmapEdgeStream final : public EdgeStream, public BlockEdgeStream {
 public:
  static StatusOr<std::unique_ptr<MmapEdgeStream>> Open(
      const std::string& path);

  ~MmapEdgeStream() override;

  MmapEdgeStream(const MmapEdgeStream&) = delete;
  MmapEdgeStream& operator=(const MmapEdgeStream&) = delete;

  Status Reset() override;
  size_t Next(Edge* out, size_t capacity) override;
  uint64_t NumEdgesHint() const override { return trailer_.num_edges; }
  Status Health() const override;
  StreamIoStats Io() const override;

  // BlockEdgeStream:
  uint32_t MaxBlockEdges() const override { return header_.max_block_edges; }
  bool NextEncodedBlock(EncodedBlock* out) override;
  Status DecodeBlock(const EncodedBlock& block, Edge* out) const override;

  const std::string& path() const { return path_; }
  uint64_t file_bytes() const { return file_bytes_; }

 private:
  MmapEdgeStream() = default;

  // All Locked helpers require mutex_ held.
  bool TakeNextBlockLocked(EdgeBlockHeader* header, const uint8_t** block,
                           size_t* block_bytes);
  void FinalizePassLocked();
  void FreeBehindLocked(size_t consumed_offset);
  // madvise(MADV_DONTNEED)s [dropped_end_, end); `dropped_end_` is
  // page-aligned, and a ragged `end` is only ever the file's end.
  void ReleaseMappedLocked(size_t end);

  std::string path_;
  const uint8_t* base_ = nullptr;
  uint64_t file_bytes_ = 0;
  size_t blocks_end_ = 0;  // file offset where the trailer starts
  EdgeFileHeader header_;
  EdgeFileTrailer trailer_;

  mutable std::mutex mutex_;
  Status status_;               // sticky
  size_t cursor_ = kEdgeFileHeaderBytes;
  uint64_t taken_pass_edges_ = 0;  // decoded off the map this pass
  bool pass_finalized_ = false;
  size_t dropped_end_ = 0;  // free-behind watermark (file offset)

  uint64_t disk_pass_bytes_ = 0;
  uint64_t disk_total_bytes_ = 0;
  uint64_t passes_ = 0;

  // Next()'s decode buffer (reader thread only).
  std::vector<Edge> decode_buf_;
  size_t decode_fill_ = 0;
  size_t decode_pos_ = 0;
};

}  // namespace io
}  // namespace tpsl

#endif  // TPSL_IO_MMAP_EDGE_STREAM_H_
