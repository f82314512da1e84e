#include "graph/binary_edge_list.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>

#include "util/logging.h"

namespace tpsl {

Status WriteBinaryEdgeList(const std::string& path,
                           const std::vector<Edge>& edges) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot open for writing: " + path + ": " +
                           std::strerror(errno));
  }
  // An empty vector's data() may be null, and fwrite's first argument is
  // declared nonnull — skip the call rather than hand it a null pointer.
  const size_t written =
      edges.empty() ? 0
                    : std::fwrite(edges.data(), sizeof(Edge), edges.size(),
                                  file);
  // Capture errno before fclose, which may overwrite it even on success.
  const int write_errno = errno;
  const int close_rc = std::fclose(file);
  if (written != edges.size()) {
    return Status::IoError("short write to " + path + ": " +
                           std::strerror(write_errno));
  }
  if (close_rc != 0) {
    // The final flush inside fclose can fail (e.g. ENOSPC) even when every
    // fwrite succeeded.
    return Status::IoError("close failed for " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<BinaryFileEdgeStream>> BinaryFileEdgeStream::Open(
    const std::string& path, size_t buffer_edges) {
  if (buffer_edges == 0) {
    return Status::InvalidArgument("buffer_edges must be positive");
  }
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::NotFound("no such file: " + path);
  }
  if (st.st_size % sizeof(Edge) != 0) {
    return Status::IoError("file size " + std::to_string(st.st_size) +
                           " is not a multiple of 8 bytes (corrupt edge "
                           "list): " +
                           path);
  }
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open: " + path + ": " +
                           std::strerror(errno));
  }
  const uint64_t num_edges = static_cast<uint64_t>(st.st_size) / sizeof(Edge);
  return std::unique_ptr<BinaryFileEdgeStream>(
      new BinaryFileEdgeStream(file, num_edges, buffer_edges));
}

BinaryFileEdgeStream::BinaryFileEdgeStream(std::FILE* file, uint64_t num_edges,
                                           size_t buffer_edges)
    : file_(file), num_edges_(num_edges), buffer_(buffer_edges) {}

BinaryFileEdgeStream::~BinaryFileEdgeStream() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

Status BinaryFileEdgeStream::Reset() {
  // The error is sticky: once a pass failed, every later pass would
  // silently read a different (shorter or corrupt) graph, so refuse.
  TPSL_RETURN_IF_ERROR(status_);
  if (std::fseek(file_, 0, SEEK_SET) != 0) {
    status_ = Status::IoError("fseek failed");
    return status_;
  }
  buffer_filled_ = 0;
  buffer_pos_ = 0;
  pass_delivered_ = 0;
  passes_ += 1;
  return Status::OK();
}

size_t BinaryFileEdgeStream::Next(Edge* out, size_t capacity) {
  if (!status_.ok()) {
    return 0;
  }
  size_t delivered = 0;
  while (delivered < capacity) {
    if (buffer_pos_ == buffer_filled_) {
      buffer_filled_ =
          std::fread(buffer_.data(), sizeof(Edge), buffer_.size(), file_);
      buffer_pos_ = 0;
      if (buffer_filled_ < buffer_.size() && std::ferror(file_) != 0) {
        status_ = Status::IoError("read error after " +
                                  std::to_string(pass_delivered_ + delivered +
                                                 buffer_filled_) +
                                  " edges: " + std::strerror(errno));
        TPSL_LOG(Error) << "BinaryFileEdgeStream: " << status_.message();
        buffer_filled_ = 0;
        return 0;
      }
      if (buffer_filled_ == 0) {
        // End of file — but is it the *right* end? A file truncated
        // after Open() hits EOF early without ever setting ferror.
        if (pass_delivered_ + delivered != num_edges_) {
          status_ = Status::IoError(
              "file ended after " +
              std::to_string(pass_delivered_ + delivered) + " of " +
              std::to_string(num_edges_) +
              " edges (truncated while reading?)");
          TPSL_LOG(Error) << "BinaryFileEdgeStream: " << status_.message();
          return 0;
        }
        break;
      }
    }
    const size_t n =
        std::min(capacity - delivered, buffer_filled_ - buffer_pos_);
    std::memcpy(out + delivered, buffer_.data() + buffer_pos_,
                n * sizeof(Edge));
    buffer_pos_ += n;
    delivered += n;
  }
  pass_delivered_ += delivered;
  total_delivered_ += delivered;
  return delivered;
}

}  // namespace tpsl
