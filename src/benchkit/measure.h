#ifndef TPSL_BENCHKIT_MEASURE_H_
#define TPSL_BENCHKIT_MEASURE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/datasets.h"
#include "graph/types.h"
#include "partition/partitioner.h"
#include "partition/runner.h"
#include "util/status.h"

namespace tpsl {
namespace benchkit {

/// All experiment binaries shrink the paper's graphs by
/// 2^TPSL_SCALE_SHIFT (environment variable) relative to the repo's
/// default benchmark size; the default keeps every binary in the
/// seconds-to-minutes range on a laptop. Malformed or out-of-range
/// values ([0, 30]) are rejected with a warning and the default is
/// used, instead of atoi-style silent truncation to 0.
int ScaleShift(int default_shift);

/// Parses a --threads flag value: an integer in [1, 1024] (0 is
/// rejected — on the CLI an explicit worker count is wanted, not the
/// 0-means-hardware sentinel). Returns false on anything else. Shared
/// by tools/bench_runner and tools/ingest so the bound and the
/// accepted syntax cannot drift apart.
bool ParseThreadCount(const char* text, uint32_t* threads);

/// One partitioning measurement: quality + run-time as the paper
/// reports them (run-time is the partitioner's own phase accounting;
/// harness overheads like metric computation are excluded).
struct Measurement {
  std::string partitioner;
  std::string dataset;
  uint32_t k = 0;
  double replication_factor = 0.0;
  double seconds = 0.0;
  double measured_alpha = 0.0;
  uint64_t state_bytes = 0;
  PartitionStats stats;
};

/// Runs `partitioner` on an in-memory edge list with full control over
/// the partitioning config (k, balance factor, seed).
StatusOr<Measurement> MeasureOnEdges(const std::string& partitioner,
                                     const std::string& dataset,
                                     const std::vector<Edge>& edges,
                                     const PartitionConfig& config);

/// Same, with the default config at `k` partitions: one worker, except
/// DNE, which runs on every hardware thread as in the paper.
StatusOr<Measurement> MeasureOnEdges(const std::string& partitioner,
                                     const std::string& dataset,
                                     const std::vector<Edge>& edges,
                                     uint32_t k);

/// Materializes the named dataset at `scale_shift` and measures.
StatusOr<Measurement> Measure(const std::string& partitioner,
                              const std::string& dataset, uint32_t k,
                              int scale_shift);

/// Prints a header like the paper's experiment tables.
void PrintHeader(const std::string& title);
void PrintRowHeader();
void PrintRow(const Measurement& m);

}  // namespace benchkit
}  // namespace tpsl

#endif  // TPSL_BENCHKIT_MEASURE_H_
