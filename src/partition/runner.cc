#include "partition/runner.h"

#include <cstdio>
#include <filesystem>
#include <optional>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>  // malloc_trim
#endif

#include "graph/binary_edge_list.h"
#include "io/edge_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "partition/assignment_sink.h"
#include "partition/partitioned_writer.h"
#include "partition/sink_pipeline.h"
#include "util/timer.h"

namespace tpsl {

namespace {

/// RunPartitioner minus the memory hand-back: the pipeline, the timed
/// pass, validation and the quality readout.
StatusOr<RunResult> RunPipeline(Partitioner& partitioner, EdgeStream& stream,
                                const PartitionConfig& config,
                                const RunOptions& options) {
  RunResult result;
  result.partitioner_name = partitioner.name();

  const uint32_t k = config.num_partitions;
  const uint64_t hint = stream.NumEdgesHint();

  // The sink pipeline: the quality sink always (it reads a lending
  // partitioner's replica matrix through the tee), materialization and
  // spill on request. Everything is single-pass — each assignment fans
  // out once through the tee as it is made, one caller at a time at
  // every thread count. At threads == 1 that is stream order (the
  // byte-identity contract).
  QualitySink quality_sink(k);
  TeeSink pipeline{&quality_sink};
  std::optional<EdgeListSink> keep_sink;
  if (options.keep_partitions) {
    keep_sink.emplace(k);
    pipeline.Add(&*keep_sink);
  }
  // A failed spill run must not leave partial partition files behind:
  // the error Status carries no SpillInfo, so no caller could clean
  // them up. Armed on spill creation, disarmed on success; declared
  // before the writer so it fires after the files are closed.
  struct SpillCleanup {
    SpillInfo files;
    bool armed = false;
    ~SpillCleanup() {
      if (armed) {
        RemoveSpilledFiles(files);
      }
    }
  } spill_cleanup;
  std::optional<PartitionedWriter> spill_sink;
  if (!options.spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.spill_dir, ec);
    if (ec) {
      return Status::IoError("cannot create spill dir " + options.spill_dir +
                             ": " + ec.message());
    }
    const std::string prefix =
        (std::filesystem::path(options.spill_dir) / options.spill_stem)
            .string();
    spill_sink.emplace(prefix, k);
    TPSL_RETURN_IF_ERROR(spill_sink->status());
    pipeline.Add(&*spill_sink);
    spill_cleanup.files.prefix = prefix;
    for (PartitionId p = 0; p < k; ++p) {
      spill_cleanup.files.partition_paths.push_back(
          spill_sink->PartitionPath(p));
    }
    spill_cleanup.armed = true;
  }

  WallTimer timer;
  {
    obs::TraceSpan span("partition.run", "partition");
    TPSL_RETURN_IF_ERROR(
        partitioner.Partition(stream, config, pipeline, &result.stats));
  }
  // Some partitioners drive Next() manually instead of via ForEachEdge;
  // a stream that failed mid-pass looks like a short EOF to them.
  TPSL_RETURN_IF_ERROR(stream.Health());
  // Same for the sinks: Assign() has no error channel, so a spill
  // writer that hit a full disk or a quality sink handed an invalid
  // vertex id latched the failure in Health(). Check before trusting
  // any downstream state.
  TPSL_RETURN_IF_ERROR(pipeline.Health());
  // Whole-run state: the partitioner's own accounting plus the live
  // sink-side state (loads, the quality sink's replica matrix when
  // none was lent, writer buffers, any opted-in edge lists) —
  // snapshot before Finish() releases the writer.
  result.stats.state_bytes += pipeline.StateBytes();
  // Before paying for the spill manifest: an invalid run needs none.
  // Every edge must be assigned exactly once; the hard cap is checked
  // only for partitioners that promise it (stateless hashing does
  // not — the paper reports their measured α instead). Loads only
  // grow, so the final loads catch any mid-stream breach too.
  const std::vector<uint64_t>& loads = quality_sink.Loads();
  uint64_t expected_edges = hint;
  if (expected_edges == 0) {
    for (const uint64_t load : loads) {
      expected_edges += load;
    }
  }
  const uint64_t capacity = partitioner.enforces_balance_cap()
                                ? config.PartitionCapacity(expected_edges)
                                : ~uint64_t{0};
  TPSL_RETURN_IF_ERROR(ValidateLoads(loads, expected_edges, capacity));
  if (spill_sink) {
    obs::TraceSpan span("partition.finish", "partition");
    TPSL_RETURN_IF_ERROR(spill_sink->Finish());
  }
  result.wall_seconds = timer.ElapsedSeconds();

  result.quality = quality_sink.Quality();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  registry.GetGauge("quality.replication_factor")
      ->Set(result.quality.replication_factor);
  registry.GetGauge("quality.max_load_skew")
      ->Set(result.quality.measured_alpha);
  if (keep_sink) {
    result.partitions = keep_sink->TakePartitions();
  }
  if (spill_sink) {
    spill_cleanup.armed = false;  // success: the files are the result
    result.spill = std::move(spill_cleanup.files);
    result.spill.edge_counts = spill_sink->edge_counts();
    result.spill.bytes_written = spill_sink->bytes_written();
  }
  return result;
}

}  // namespace

StatusOr<RunResult> RunPartitioner(Partitioner& partitioner,
                                   EdgeStream& stream,
                                   const PartitionConfig& config,
                                   const RunOptions& options) {
  StatusOr<RunResult> result =
      RunPipeline(partitioner, stream, config, options);
  // The run's O(|V|·k) state is freed by now. glibc raises its trim
  // threshold to twice the largest mmapped block freed so far (up to
  // 64 MB) and keeps a freed heap top below it resident, so whether a
  // run's state leaves the resident set would otherwise depend on
  // whether its heap peak crossed that threshold. Hand it back (about
  // a millisecond): between runs the process holds no run-sized residue.
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  return result;
}

StatusOr<std::vector<std::unique_ptr<EdgeStream>>> OpenSpilledPartitions(
    const SpillInfo& spill) {
  if (!spill.spilled()) {
    return Status::FailedPrecondition(
        "run did not spill (set RunOptions::spill_dir)");
  }
  std::vector<std::unique_ptr<EdgeStream>> streams;
  streams.reserve(spill.partition_paths.size());
  for (const std::string& path : spill.partition_paths) {
    // Sniffing open: spilled files are compressed edge-block files
    // today, but manifests written by older runs (raw fixed-width
    // pairs) stay readable.
    TPSL_ASSIGN_OR_RETURN(std::unique_ptr<EdgeStream> stream,
                          io::OpenEdgeFile(path));
    streams.push_back(std::move(stream));
  }
  return streams;
}

std::vector<EdgeStream*> StreamPointers(
    const std::vector<std::unique_ptr<EdgeStream>>& streams) {
  std::vector<EdgeStream*> pointers;
  pointers.reserve(streams.size());
  for (const std::unique_ptr<EdgeStream>& stream : streams) {
    pointers.push_back(stream.get());
  }
  return pointers;
}

void RemoveSpilledFiles(const SpillInfo& spill) {
  for (const std::string& path : spill.partition_paths) {
    std::remove(path.c_str());
  }
  if (spill.spilled()) {
    std::remove((spill.prefix + ".manifest").c_str());
  }
}

}  // namespace tpsl
