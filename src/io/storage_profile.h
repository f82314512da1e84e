#ifndef TPSL_IO_STORAGE_PROFILE_H_
#define TPSL_IO_STORAGE_PROFILE_H_

#include <cstdint>

#include "graph/edge_stream.h"

namespace tpsl {

/// Storage-device profiles for the paper's Table V experiment
/// (partitioning from page cache vs SSD vs HDD). Bandwidths are the
/// fio-profiled sequential read speeds reported in the paper.
struct StorageProfile {
  const char* name;
  /// Sequential read bandwidth in bytes/second; 0 = free (page cache).
  uint64_t bytes_per_second;
};

inline constexpr StorageProfile kPageCacheProfile{"PageCache", 0};
inline constexpr StorageProfile kSsdProfile{"SSD", 938ull * 1000 * 1000};
inline constexpr StorageProfile kHddProfile{"HDD", 158ull * 1000 * 1000};

/// Seconds the profiled device would need to deliver a file stream's
/// on-disk bytes across all its passes (io.disk_bytes_total). A
/// block-compressed file is charged its compressed size, and every
/// pass pays full cost, which models the page cache the paper drops
/// between passes. Nothing sleeps: Table V reports compute time plus
/// this figure, a conservative no-overlap model.
inline double SimulatedIoSeconds(const StreamIoStats& io,
                                 const StorageProfile& profile) {
  if (profile.bytes_per_second == 0) {
    return 0.0;
  }
  return static_cast<double>(io.disk_bytes_total) /
         static_cast<double>(profile.bytes_per_second);
}

}  // namespace tpsl

#endif  // TPSL_IO_STORAGE_PROFILE_H_
