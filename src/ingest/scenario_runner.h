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

/// The one scenario entry point; its switch is the only dispatch on
/// ScenarioKind. kInMemory and kDiskPartition share one partition
/// path: the stream is the materialized Table III dataset or the
/// catalog file through OpenDatasetStream (the mmap reader for
/// compressed files, PrefetchingEdgeStream over fread for raw ones).
/// kIngestScan times full scans of that same stream; kMicroKernel and
/// kMicroObs run benchkit's kernel-table driver; kServe runs
/// serve::RunServeScenario. Every kind fills its record through
/// benchkit::ScenarioRecord and repeats through benchkit::RunRepeats,
/// so every reported value and the obs snapshot come from one repeat.
///
/// Partition records: "seconds", "replication_factor",
/// "measured_alpha", "state_bytes", "num_edges", "peak_rss_bytes",
/// "phase_seconds/<phase>" and "edges_per_sec/<phase>". Disk records
/// add "io_bytes_per_pass" (= file bytes, deterministic), "io_passes"
/// (partitioner passes over the file, deterministic), "bytes_read"
/// (gated upper-only), "compression_ratio", "max_rss_bytes" (gated
/// upper-only — the out-of-core honesty check that resident memory
/// stays bounded) and, for spill scenarios, "spill_bytes_written"
/// (gated upper-only, like "bytes_read").
///
/// Scan records: "seconds" (fastest scan), "num_edges", "file_bytes"
/// (deterministic), "edges_per_second", "mb_per_second",
/// "peak_rss_bytes" and the io metrics above.
StatusOr<benchkit::BenchRecord> RunScenarioWithIngest(
    const benchkit::Scenario& scenario, const ScenarioRunContext& context);

}  // namespace ingest
}  // namespace tpsl

#endif  // TPSL_INGEST_SCENARIO_RUNNER_H_
