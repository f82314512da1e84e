#ifndef TPSL_INGEST_CHECKSUM_H_
#define TPSL_INGEST_CHECKSUM_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace tpsl {
namespace ingest {

/// Renders an io::Fnv1a64 digest (io/edge_block_format.h) as the
/// catalog's checksum string, "fnv1a64:<16 lowercase hex digits>".
/// FNV-1a is fast enough to run at generation speed, stable across
/// platforms, and strong enough to catch corruption/truncation (the
/// catalog's --verify), which is all it is for — it is not a
/// cryptographic hash. Checksums travel as strings because JSON numbers
/// are doubles and cannot round-trip 64 bits.
std::string FormatChecksum(uint64_t digest);

/// Streams `path` through io::Fnv1a64 with a bounded buffer and returns
/// the formatted checksum.
StatusOr<std::string> ChecksumFile(const std::string& path);

}  // namespace ingest
}  // namespace tpsl

#endif  // TPSL_INGEST_CHECKSUM_H_
