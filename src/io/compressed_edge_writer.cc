#include "io/compressed_edge_writer.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tpsl {
namespace io {

namespace {

/// Edges the free pool holds beyond each file's current block: 16
/// spill blocks or 4 whole-file blocks. At t>1 the appender holds the
/// delivery mutex while it waits for a free block, and when every core
/// runs a worker the writer thread can be off-CPU for milliseconds.
/// On a 4-vCPU host, t=4 spill partitioning with 4 spill blocks was
/// slower than encoding under the mutex; with 16 it was faster.
constexpr size_t kPoolEdges = size_t{1} << 16;

}  // namespace

CompressedEdgeWriter::CompressedEdgeWriter(
    const std::vector<std::string>& paths, uint32_t block_edges)
    : paths_(paths), block_edges_(block_edges), files_(paths.size()) {
  if (block_edges == 0 || block_edges > kMaxBlockEdges) {
    Fail(Status::InvalidArgument("CompressedEdgeWriter: bad block size"));
    return;
  }
  uint8_t header[kEdgeFileHeaderBytes];
  EdgeFileHeader file_header;
  file_header.max_block_edges = block_edges;
  EncodeFileHeader(file_header, header);
  for (size_t f = 0; f < files_.size(); ++f) {
    files_[f].stream = std::fopen(paths_[f].c_str(), "wb");
    if (files_[f].stream == nullptr) {
      Fail(Status::IoError("open for write failed: " + paths_[f] + ": " +
                           std::strerror(errno)));
      return;
    }
    if (std::fwrite(header, 1, sizeof(header), files_[f].stream) !=
        sizeof(header)) {
      Fail(Status::IoError("header write failed for " + paths_[f] + ": " +
                           std::strerror(errno)));
      return;
    }
    bytes_written_ += sizeof(header);
  }
  const size_t pool_blocks = std::max<size_t>(1, kPoolEdges / block_edges_);
  blocks_.resize((files_.size() + pool_blocks) * block_edges_);
  for (size_t f = 0; f < files_.size(); ++f) {
    files_[f].block = blocks_.data() + f * block_edges_;
  }
  for (size_t b = files_.size(); b < files_.size() + pool_blocks; ++b) {
    free_blocks_.push_back(blocks_.data() + b * block_edges_);
  }
  encoded_.resize(MaxEncodedBlockBytes(block_edges_));
  writer_ = std::thread([this] { WriterLoop(); });
}

CompressedEdgeWriter::~CompressedEdgeWriter() {
  StopWriterThread();
  for (File& file : files_) {
    if (file.stream != nullptr) {
      std::fclose(file.stream);
    }
  }
}

void CompressedEdgeWriter::Fail(Status status) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (status_.ok()) {
    status_ = std::move(status);
    failed_.store(true, std::memory_order_relaxed);
  }
}

void CompressedEdgeWriter::StopWriterThread() {
  if (!writer_.joinable()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_one();
  writer_.join();
}

void CompressedEdgeWriter::WriterLoop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ with a drained queue
      }
      pending = queue_.front();
      queue_.pop_front();
    }
    if (!failed_.load(std::memory_order_relaxed)) {
      File& file = files_[pending.file];
      file.checksum = Fnv1a64(pending.block, pending.count * sizeof(Edge),
                              file.checksum);
      const size_t bytes =
          EncodeEdgeBlock(pending.block, pending.count, encoded_.data());
      if (std::fwrite(encoded_.data(), 1, bytes, file.stream) != bytes) {
        Fail(Status::IoError("block write failed for " +
                             paths_[pending.file] + ": " +
                             std::strerror(errno)));
      }
      bytes_written_ += bytes;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      free_blocks_.push_back(pending.block);
    }
    free_cv_.notify_one();
  }
}

void CompressedEdgeWriter::QueueBlock(size_t file, bool replace) {
  File& f = files_[file];
  std::unique_lock<std::mutex> lock(mutex_);
  queue_.push_back(Pending{file, f.block, f.fill});
  work_cv_.notify_one();
  f.fill = 0;
  if (replace) {
    free_cv_.wait(lock, [this] { return !free_blocks_.empty(); });
    f.block = free_blocks_.back();
    free_blocks_.pop_back();
  }
}

Status CompressedEdgeWriter::Finish(obs::Histogram* seal_seconds) {
  if (finished_) {
    return Status::FailedPrecondition(
        "CompressedEdgeWriter: Finish() called twice");
  }
  finished_ = true;
  // The thread runs only if every file opened. Tail blocks must be on
  // disk before the trailers go in behind them.
  if (writer_.joinable()) {
    for (size_t f = 0; f < files_.size(); ++f) {
      if (files_[f].fill > 0) {
        QueueBlock(f, /*replace=*/false);
      }
    }
    StopWriterThread();
  }
  for (size_t f = 0; f < files_.size(); ++f) {
    File& file = files_[f];
    if (file.stream == nullptr) {
      continue;
    }
    const int64_t seal_start_ns = obs::TraceNowNanos();
    EdgeFileTrailer trailer;
    trailer.num_edges = file.edges;
    trailer.edge_checksum = file.checksum;
    uint8_t bytes[kEdgeFileTrailerBytes];
    EncodeFileTrailer(trailer, bytes);
    if (std::fwrite(bytes, 1, sizeof(bytes), file.stream) != sizeof(bytes)) {
      Fail(Status::IoError("trailer write failed for " + paths_[f] + ": " +
                           std::strerror(errno)));
    }
    bytes_written_ += sizeof(bytes);
    // The final flush inside fclose can fail (ENOSPC) even when every
    // fwrite succeeded.
    if (std::fclose(file.stream) != 0) {
      Fail(Status::IoError("close failed for " + paths_[f] + ": " +
                           std::strerror(errno)));
    }
    file.stream = nullptr;
    if (seal_seconds != nullptr) {
      seal_seconds->RecordNanos(
          static_cast<uint64_t>(obs::TraceNowNanos() - seal_start_ns));
    }
  }
  return Health();
}

Status CompressedEdgeWriter::Health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return status_;
}

uint64_t CompressedEdgeWriter::StateBytes() const {
  uint64_t open_files = 0;
  for (const File& file : files_) {
    open_files += file.stream != nullptr ? 1 : 0;
  }
  // stdio allocates one BUFSIZ buffer per stream on first write.
  return open_files * static_cast<uint64_t>(BUFSIZ) +
         blocks_.capacity() * sizeof(Edge) + encoded_.capacity() +
         files_.capacity() * sizeof(File);
}

}  // namespace io
}  // namespace tpsl
