#include "io/mmap_edge_stream.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tpsl {
namespace io {
namespace {

/// Free-behind granularity of the consumed map prefix.
constexpr size_t kFreeBehindBytes = 8u << 20;

}  // namespace

StatusOr<std::unique_ptr<MmapEdgeStream>> MmapEdgeStream::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("open failed: " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::IoError("stat failed: " + path + ": " +
                                          std::strerror(errno));
    ::close(fd);
    return status;
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < kEdgeFileHeaderBytes + kEdgeFileTrailerBytes) {
    ::close(fd);
    return Status::IoError("not a compressed edge file (too small): " + path);
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (map == MAP_FAILED) {
    return Status::IoError("mmap failed: " + path + ": " +
                           std::strerror(errno));
  }
#if defined(POSIX_MADV_SEQUENTIAL)
  ::posix_madvise(map, size, POSIX_MADV_SEQUENTIAL);
#endif

  std::unique_ptr<MmapEdgeStream> stream(new MmapEdgeStream());
  stream->path_ = path;
  stream->base_ = static_cast<const uint8_t*>(map);
  stream->file_bytes_ = size;
  stream->blocks_end_ = size - kEdgeFileTrailerBytes;

  Status status = DecodeFileHeader(stream->base_, size, &stream->header_);
  if (status.ok()) {
    status = DecodeFileTrailer(stream->base_ + stream->blocks_end_,
                               kEdgeFileTrailerBytes, &stream->trailer_);
  }
  if (!status.ok()) {
    return Status(status.code(), path + ": " + status.message());
  }
  stream->decode_buf_.resize(stream->header_.max_block_edges);
  return stream;
}

MmapEdgeStream::~MmapEdgeStream() {
  if (base_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(base_), file_bytes_);
  }
}

Status MmapEdgeStream::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!status_.ok()) {
    // A failed stream stays failed: restarting could silently deliver
    // a different edge sequence than the first pass saw.
    return status_;
  }
  ReleaseMappedLocked(file_bytes_);  // a pass abandoned before its end
  cursor_ = kEdgeFileHeaderBytes;
  taken_pass_edges_ = 0;
  pass_finalized_ = false;
  dropped_end_ = 0;
  disk_pass_bytes_ = 0;
  passes_ += 1;
  decode_fill_ = 0;
  decode_pos_ = 0;
  return Status::OK();
}

Status MmapEdgeStream::Health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return status_;
}

StreamIoStats MmapEdgeStream::Io() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StreamIoStats io;
  io.disk_backed = true;
  io.disk_bytes_this_pass = disk_pass_bytes_;
  io.disk_bytes_total = disk_total_bytes_;
  io.passes = passes_;
  return io;
}

bool MmapEdgeStream::TakeNextBlockLocked(EdgeBlockHeader* header,
                                         const uint8_t** block,
                                         size_t* block_bytes) {
  if (!status_.ok() || cursor_ >= blocks_end_) {
    return false;
  }
  const Status parsed =
      DecodeBlockHeader(base_ + cursor_, blocks_end_ - cursor_, header);
  if (!parsed.ok()) {
    status_ = Status(parsed.code(), path_ + ": " + parsed.message());
    return false;
  }
  if (header->num_edges > header_.max_block_edges) {
    // Decode buffers are provisioned from the file header; an
    // oversized block is corruption, not a bigger buffer request.
    status_ = Status::IoError(path_ + ": block exceeds declared block size");
    return false;
  }
  *block = base_ + cursor_;
  *block_bytes = kEdgeBlockHeaderBytes + header->payload_bytes;
  cursor_ += *block_bytes;
  taken_pass_edges_ += header->num_edges;
  FreeBehindLocked(cursor_);
  return true;
}

void MmapEdgeStream::FinalizePassLocked() {
  if (pass_finalized_) {
    return;
  }
  pass_finalized_ = true;
  if (status_.ok() && taken_pass_edges_ != trailer_.num_edges) {
    status_ = Status::IoError(
        path_ + ": decoded " + std::to_string(taken_pass_edges_) +
        " edges but the trailer promises " +
        std::to_string(trailer_.num_edges));
  }
  if (status_.ok()) {
    // Blocks were accounted as consumed; the fixed framing completes
    // the pass: a full pass reads exactly the file's bytes.
    const uint64_t framing = kEdgeFileHeaderBytes + kEdgeFileTrailerBytes;
    disk_pass_bytes_ += framing;
    disk_total_bytes_ += framing;
  }
  // Release the pass's tail, which free-behind keeps below its 8 MiB
  // step; otherwise it stays mapped beside the next pass's head, and
  // after the last pass until the stream dies. In block mode other
  // workers may still be decoding the last blocks taken. The mapping is
  // read-only and MAP_PRIVATE, so those reads refault from the page
  // cache with the same bytes — free-behind already relies on this,
  // since it drops up to the cursor, past blocks just taken.
  ReleaseMappedLocked(file_bytes_);
}

void MmapEdgeStream::FreeBehindLocked(size_t consumed_offset) {
  static const size_t kPage = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const size_t floor = consumed_offset & ~(kPage - 1);
  if (floor > dropped_end_ && floor - dropped_end_ >= kFreeBehindBytes) {
    ReleaseMappedLocked(floor);
  }
}

void MmapEdgeStream::ReleaseMappedLocked(size_t end) {
  if (end <= dropped_end_) {
    return;
  }
#if defined(MADV_DONTNEED)
  ::madvise(const_cast<uint8_t*>(base_) + dropped_end_, end - dropped_end_,
            MADV_DONTNEED);
#endif
  dropped_end_ = end;
}

size_t MmapEdgeStream::Next(Edge* out, size_t capacity) {
  if (capacity == 0) {
    return 0;  // not an end of pass
  }
  size_t delivered = 0;
  while (delivered < capacity) {
    if (decode_pos_ == decode_fill_) {
      std::lock_guard<std::mutex> lock(mutex_);
      EdgeBlockHeader header;
      const uint8_t* block = nullptr;
      size_t block_bytes = 0;
      if (!TakeNextBlockLocked(&header, &block, &block_bytes)) {
        break;
      }
      const Status decoded = DecodeBlockPayload(
          header, block + kEdgeBlockHeaderBytes, decode_buf_.data());
      if (!decoded.ok()) {
        if (status_.ok()) {
          status_ = Status(decoded.code(), path_ + ": " + decoded.message());
        }
        break;
      }
      decode_fill_ = header.num_edges;
      decode_pos_ = 0;
      disk_pass_bytes_ += block_bytes;
      disk_total_bytes_ += block_bytes;
    }
    const size_t available = decode_fill_ - decode_pos_;
    const size_t take =
        available < capacity - delivered ? available : capacity - delivered;
    std::memcpy(out + delivered, decode_buf_.data() + decode_pos_,
                take * sizeof(Edge));
    decode_pos_ += take;
    delivered += take;
  }
  if (delivered == 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    FinalizePassLocked();
  }
  return delivered;
}

bool MmapEdgeStream::NextEncodedBlock(EncodedBlock* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  EdgeBlockHeader header;
  const uint8_t* block = nullptr;
  size_t block_bytes = 0;
  if (!TakeNextBlockLocked(&header, &block, &block_bytes)) {
    FinalizePassLocked();
    return false;
  }
  out->data = block;
  out->bytes = block_bytes;
  out->num_edges = header.num_edges;
  disk_pass_bytes_ += block_bytes;
  disk_total_bytes_ += block_bytes;
  return true;
}

Status MmapEdgeStream::DecodeBlock(const EncodedBlock& block,
                                   Edge* out) const {
  EdgeBlockHeader header;
  TPSL_RETURN_IF_ERROR(DecodeBlockHeader(
      static_cast<const uint8_t*>(block.data), block.bytes, &header));
  if (header.num_edges != block.num_edges) {
    return Status::Internal("encoded block view out of sync with header");
  }
  return DecodeBlockPayload(
      header, static_cast<const uint8_t*>(block.data) + kEdgeBlockHeaderBytes,
      out);
}

}  // namespace io
}  // namespace tpsl
