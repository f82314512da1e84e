#ifndef TPSL_PARTITION_RUNNER_H_
#define TPSL_PARTITION_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/edge_stream.h"
#include "partition/metrics.h"
#include "partition/partitioner.h"
#include "util/status.h"

namespace tpsl {

/// Where a spilled run's partitions landed on disk: one binary edge
/// list per partition plus a plain-text manifest, written by the
/// PartitionedWriter spill sink as assignments streamed through.
struct SpillInfo {
  /// `<spill_dir>/<spill_stem>`; files are `<prefix>.part<i>.bin` and
  /// `<prefix>.manifest`. Empty when the run did not spill.
  std::string prefix;
  std::vector<std::string> partition_paths;
  std::vector<uint64_t> edge_counts;
  uint64_t bytes_written = 0;

  bool spilled() const { return !prefix.empty(); }
};

/// One timed, measured partitioning run: what every experiment and
/// example needs. Wraps Partitioner::Partition with a wall timer and a
/// composable sink pipeline — streaming quality metrics always (loads,
/// plus an O(|V|·k) bit matrix only for partitioners that lend none;
/// never an edge list), contract validation from the quality sink's
/// loads always, plus opt-in materialization and disk spill sinks.
struct RunResult {
  std::string partitioner_name;
  PartitionQuality quality;
  PartitionStats stats;
  double wall_seconds = 0.0;
  /// Per-partition edge lists (moved out of the sink). Empty unless
  /// `keep_partitions` was set.
  std::vector<std::vector<Edge>> partitions;
  /// On-disk partition files. Unset unless `spill_dir` was set.
  SpillInfo spill;
};

struct RunOptions {
  /// Add an EdgeListSink to the pipeline and retain the materialized
  /// partitions in the result. Explicit opt-in: costs O(|E|) memory,
  /// which defeats the out-of-core measurement path — prefer
  /// `spill_dir` + OpenSpilledPartitions for downstream processing.
  bool keep_partitions = false;
  /// Non-empty: add a PartitionedWriter spill sink that streams every
  /// assignment to one compressed edge-block file per partition under
  /// this directory (created if missing). RunResult::spill describes
  /// the files.
  std::string spill_dir;
  /// File-name stem for the spilled partition files.
  std::string spill_stem = "partitions";
};

/// Runs `partitioner` on `stream` and returns measurements. The sink
/// pipeline is one TeeSink of QualitySink, plus EdgeListSink and the
/// spill writer on request, at every thread count. Quality is computed
/// single-pass by the QualitySink while assignments stream through, and
/// validation reads that sink's loads — the default path holds no edge
/// lists, so out-of-core runs stay out of core end to end. The run fails
/// if an edge is lost or duplicated, or if a partitioner whose
/// `enforces_balance_cap()` holds exceeds the hard cap (checked once,
/// after the pass and before the spill is finalized). A partitioner
/// that keeps a replica matrix lends it, so it is the run's only `v2p`
/// matrix and the sink holds loads only. Sets the
/// `quality.replication_factor` and `quality.max_load_skew` gauges from
/// the final quality. `stats.state_bytes` covers the whole run:
/// partitioner state plus sink-side state (loads, the sink's own
/// replica matrix when none was lent, writer buffers, opted-in edge
/// lists). That state is freed, and handed back to the OS, before the
/// call returns.
StatusOr<RunResult> RunPartitioner(Partitioner& partitioner,
                                   EdgeStream& stream,
                                   const PartitionConfig& config,
                                   const RunOptions& options = {});

/// Opens every spilled partition file as a buffered EdgeStream, in
/// partition order — the hand-off from a spilled run to disk-backed
/// distributed processing (procsim).
StatusOr<std::vector<std::unique_ptr<EdgeStream>>> OpenSpilledPartitions(
    const SpillInfo& spill);

/// Non-owning view for APIs that take a span of streams.
std::vector<EdgeStream*> StreamPointers(
    const std::vector<std::unique_ptr<EdgeStream>>& streams);

/// Best-effort deletion of the spilled files and manifest.
void RemoveSpilledFiles(const SpillInfo& spill);

}  // namespace tpsl

#endif  // TPSL_PARTITION_RUNNER_H_
