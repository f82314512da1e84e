#ifndef TPSL_INGEST_SCENARIO_RUNNER_H_
#define TPSL_INGEST_SCENARIO_RUNNER_H_

#include <string>

#include "benchkit/record.h"
#include "benchkit/runner.h"
#include "benchkit/scenario.h"
#include "util/status.h"

namespace tpsl {
namespace ingest {

/// Everything a disk-backed scenario needs to find its bytes. The
/// catalog file is the checked-in contract (bench/catalog.json); the
/// dataset dir is a cache — missing datasets are generated on demand
/// (get-or-generate), so a fresh checkout can run --check end to end.
struct ScenarioRunContext {
  std::string catalog_path = "bench/catalog.json";
  std::string dataset_dir = "bench/.datasets";
  benchkit::RunScenarioOptions options;
  /// Where spill-to-disk scenarios write their partition files
  /// (deleted after measurement). Deliberately not under dataset_dir:
  /// CI caches the dataset dir and must not cache transient spill.
  std::string spill_dir = "bench/.spill";
};

/// Kind-dispatching scenario runner: in-memory scenarios delegate to
/// benchkit::RunScenario; kDiskPartition streams the catalog dataset
/// through OpenDatasetStream (the mmap reader for compressed files,
/// PrefetchingEdgeStream over fread for raw ones) into the
/// partitioner; kIngestScan measures that stream's scan throughput
/// (and a plain io::OpenEdgeFile scan for comparison).
///
/// Disk records add metrics on top of benchkit's usual set:
///   kDiskPartition: "io_bytes_per_pass" (= file bytes, deterministic),
///     "io_passes" (partitioner passes over the file, deterministic),
///     "max_rss_bytes" (gated upper-only — the out-of-core honesty
///     check that resident memory stays bounded), and for spill
///     scenarios "spill_bytes_written" (gated upper-only, like
///     "bytes_read")
///   kIngestScan: "seconds" (fastest prefetched scan), "num_edges",
///     "file_bytes" (deterministic), "edges_per_second",
///     "mb_per_second", "plain_seconds" (informational)
StatusOr<benchkit::BenchRecord> RunScenarioWithIngest(
    const benchkit::Scenario& scenario, const ScenarioRunContext& context);

}  // namespace ingest
}  // namespace tpsl

#endif  // TPSL_INGEST_SCENARIO_RUNNER_H_
