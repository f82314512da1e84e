#include "ingest/checksum.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "io/edge_block_format.h"

namespace tpsl {
namespace ingest {

std::string FormatChecksum(uint64_t digest) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "fnv1a64:%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

StatusOr<std::string> ChecksumFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("cannot open: " + path + ": " +
                            std::strerror(errno));
  }
  uint64_t digest = io::kFnv1a64OffsetBasis;
  char buffer[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    digest = io::Fnv1a64(buffer, n, digest);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return Status::IoError("read failed while checksumming: " + path);
  }
  return FormatChecksum(digest);
}

}  // namespace ingest
}  // namespace tpsl
