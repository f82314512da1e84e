#include "ingest/scenario_runner.h"

#include <memory>
#include <utility>

#include "baselines/registry.h"
#include "exec/thread_pool.h"
#include "benchkit/micro_kernels.h"
#include "benchkit/obs_kernels.h"
#include "benchkit/runner.h"
#include "ingest/catalog.h"
#include "io/edge_file.h"
#include "obs/metrics.h"
#include "ingest/prefetching_edge_stream.h"
#include "partition/runner.h"
#include "serve/serve_scenario.h"
#include "util/memory.h"
#include "util/timer.h"

namespace tpsl {
namespace ingest {
namespace {

using benchkit::BenchRecord;
using benchkit::Scenario;
using benchkit::ScenarioKind;

/// Catalog lookup + get-or-generate for the scenario's dataset.
StatusOr<EnsureResult> EnsureScenarioDataset(const Scenario& scenario,
                                             const ScenarioRunContext& context) {
  TPSL_ASSIGN_OR_RETURN(const Catalog catalog,
                        LoadCatalog(context.catalog_path));
  const CatalogEntry* entry = catalog.Find(scenario.dataset);
  if (entry == nullptr) {
    return Status::NotFound("scenario '" + scenario.name +
                            "' references dataset '" + scenario.dataset +
                            "' which is not in " + context.catalog_path);
  }
  return EnsureDataset(*entry, context.dataset_dir);
}

/// The effective worker count: the tools' --threads override wins over
/// the scenario's pinned count (and shows up in the record, so --check
/// flags the drift). Resolved through the engine helper because the
/// record's threads dimension must be a concrete count — FromJson
/// rejects 0, so an unresolved value would emit an unreadable baseline.
uint32_t EffectiveThreads(const Scenario& scenario,
                          const ScenarioRunContext& context) {
  return exec::ResolveThreadCount(context.options.threads_override != 0
                                      ? context.options.threads_override
                                      : scenario.threads);
}

BenchRecord MakeRecordShell(const Scenario& scenario,
                            const ScenarioRunContext& context) {
  BenchRecord record;
  record.scenario = scenario.name;
  record.partitioner = scenario.partitioner;
  record.dataset = scenario.dataset;
  record.k = scenario.k;
  // Disk datasets are pinned by the catalog recipe; the smoke run's
  // extra_scale_shift deliberately does not apply.
  record.scale_shift = scenario.scale_shift;
  record.seed = scenario.seed;
  record.threads = EffectiveThreads(scenario, context);
  return record;
}

/// The stream's on-disk I/O account folded into record metrics:
/// per-pass and per-run byte totals (compressed bytes for compressed
/// files — the bytes that actually crossed the storage boundary) plus
/// the decoded/on-disk ratio for context.
void AttachIoMetrics(BenchRecord* record, const StreamIoStats& io,
                     uint64_t num_edges, int repeats) {
  const double passes = static_cast<double>(io.passes);
  record->SetMetric("io_bytes_per_pass",
                    passes > 0.0
                        ? static_cast<double>(io.disk_bytes_total) / passes
                        : 0.0);
  record->SetMetric("io_passes", passes / repeats);
  // Gated (upper-only): the whole point of the compressed format is
  // that a run reads strictly fewer bytes than edges * 8 * passes.
  record->SetMetric("bytes_read",
                    static_cast<double>(io.disk_bytes_total) / repeats);
  if (io.disk_bytes_total > 0) {
    record->SetMetric("compression_ratio",
                      static_cast<double>(num_edges) * sizeof(Edge) * passes /
                          static_cast<double>(io.disk_bytes_total));
  }
}

StatusOr<BenchRecord> RunDiskPartition(const Scenario& scenario,
                                       const ScenarioRunContext& context) {
  TPSL_ASSIGN_OR_RETURN(const EnsureResult dataset,
                        EnsureScenarioDataset(scenario, context));
  const bool rss_scoped = ResetPeakRss();
  TPSL_ASSIGN_OR_RETURN(
      std::unique_ptr<EdgeStream> stream,
      OpenDatasetStream(dataset.path));

  PartitionConfig config;
  config.num_partitions = scenario.k;
  config.seed = scenario.seed;
  // The execution engine under the partitioner: at t>1 its workers
  // decode compressed blocks themselves; a raw file's prefetching
  // reader overlaps its freads with scoring at any thread count.
  config.exec.threads = EffectiveThreads(scenario, context);

  // Spill scenarios run the paper's full out-of-core loop: the
  // streaming sink pipeline writes assignments straight back to disk
  // (one compressed edge-block file per partition) instead of keeping
  // anything edge-sized resident.
  RunOptions run_options;
  if (scenario.spill) {
    run_options.spill_dir = context.spill_dir;
    run_options.spill_stem = scenario.name;
  }

  const int repeats = context.options.repeats > 0 ? context.options.repeats
                                                  : 1;
  RunResult best;
  // Repeat-scoped obs snapshots, kept with the repeat whose timing is
  // reported (as in benchkit's in-memory runner).
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::MetricsSnapshot obs_snapshot;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    registry.Reset();
    // Fresh partitioner per repeat (they are single-shot); the stream
    // is reused — each pass re-reads the file, so every repeat pays
    // full I/O, matching the paper's dropped-cache discipline. Spill
    // repeats overwrite the same files.
    TPSL_ASSIGN_OR_RETURN(std::unique_ptr<Partitioner> partitioner,
                          MakePartitioner(scenario.partitioner));
    TPSL_ASSIGN_OR_RETURN(
        RunResult result,
        RunPartitioner(*partitioner, *stream, config, run_options));
    if (repeat == 0 ||
        result.stats.TotalSeconds() < best.stats.TotalSeconds()) {
      // Deterministic metrics are identical across repeats; keep the
      // fastest timing like benchkit's in-memory runner.
      std::swap(best, result);
      obs_snapshot = registry.Snapshot();
    }
  }

  BenchRecord record = MakeRecordShell(scenario, context);
  record.SetMetric("seconds", best.stats.TotalSeconds());
  record.SetMetric("replication_factor", best.quality.replication_factor);
  record.SetMetric("measured_alpha", best.quality.measured_alpha);
  record.SetMetric("state_bytes",
                   static_cast<double>(best.stats.state_bytes));
  record.SetMetric("num_edges", static_cast<double>(dataset.num_edges));
  const double rss = static_cast<double>(PeakRssBytes());
  record.SetMetric("peak_rss_bytes", rss);
  // Gated (upper-only): a disk-backed run whose resident memory starts
  // scaling with |E| again fails --check — the out-of-core honesty
  // contract this subsystem exists to keep. Only emitted when the RSS
  // high-water mark could be scoped to this scenario; the unsupported
  // fallback is the process-lifetime peak, which would gate on
  // whichever scenario ran earlier, not on this one.
  if (rss_scoped) {
    record.SetMetric("max_rss_bytes", rss);
  }
  if (scenario.spill) {
    record.SetMetric("spill_bytes_written",
                     static_cast<double>(best.spill.bytes_written));
    RemoveSpilledFiles(best.spill);
  }
  // Deterministic I/O shape: bytes per pass is the on-disk file size
  // (compressed for block files), and the pass count is the
  // partitioner's streaming structure (2 for 2PS-L).
  AttachIoMetrics(&record, stream->Io(), dataset.num_edges, repeats);
  for (const auto& [phase, seconds] : best.stats.phase_seconds) {
    record.SetMetric("phase_seconds/" + phase, seconds);
    // Phase throughput over the full edge set, matching the in-memory
    // runner; "partitioning" is the gated hot-loop rate.
    if (seconds > 0.0 && dataset.num_edges > 0) {
      record.SetMetric("edges_per_sec/" + phase,
                       static_cast<double>(dataset.num_edges) / seconds);
    }
  }
  benchkit::AttachObsMetrics(&record, obs_snapshot);
  benchkit::AttachHostMetrics(&record);
  return record;
}

StatusOr<BenchRecord> RunIngestScan(const Scenario& scenario,
                                    const ScenarioRunContext& context) {
  TPSL_ASSIGN_OR_RETURN(const EnsureResult dataset,
                        EnsureScenarioDataset(scenario, context));
  ResetPeakRss();

  const int repeats = context.options.repeats > 0 ? context.options.repeats
                                                  : 1;
  // Baseline for comparison: the same scan without prefetching (for a
  // compressed file both scans use the same synchronous mmap reader).
  // Runs first so the prefetched number cannot be flattered by a cold
  // page cache on the plain pass.
  double plain_seconds = 0.0;
  {
    // Sniffing open: a synchronous reader for either format (raw fread
    // or mmap block decode).
    TPSL_ASSIGN_OR_RETURN(std::unique_ptr<EdgeStream> plain,
                          io::OpenEdgeFile(dataset.path));
    for (int repeat = 0; repeat < repeats; ++repeat) {
      uint64_t count = 0;
      WallTimer timer;
      TPSL_RETURN_IF_ERROR(
          ForEachEdge(*plain, [&count](const Edge&) { ++count; }));
      const double elapsed = timer.ElapsedSeconds();
      if (repeat == 0 || elapsed < plain_seconds) {
        plain_seconds = elapsed;
      }
      if (count != dataset.num_edges) {
        return Status::Internal("plain scan of " + dataset.path +
                                " delivered " + std::to_string(count) +
                                " of " + std::to_string(dataset.num_edges) +
                                " edges");
      }
    }
  }

  TPSL_ASSIGN_OR_RETURN(
      std::unique_ptr<EdgeStream> stream,
      OpenDatasetStream(dataset.path));
  // Repeat-scoped obs snapshots: the registry is reset before each
  // prefetched scan (so the plain scans never count), and the record
  // carries the snapshot of the scan whose time it reports.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::MetricsSnapshot obs_snapshot;
  double seconds = 0.0;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    registry.Reset();
    uint64_t count = 0;
    WallTimer timer;
    TPSL_RETURN_IF_ERROR(
        ForEachEdge(*stream, [&count](const Edge&) { ++count; }));
    const double elapsed = timer.ElapsedSeconds();
    if (repeat == 0 || elapsed < seconds) {
      seconds = elapsed;
      obs_snapshot = registry.Snapshot();
    }
    if (count != dataset.num_edges) {
      return Status::Internal("prefetched scan of " + dataset.path +
                              " delivered " + std::to_string(count) + " of " +
                              std::to_string(dataset.num_edges) + " edges");
    }
  }

  BenchRecord record = MakeRecordShell(scenario, context);
  record.SetMetric("seconds", seconds);
  record.SetMetric("num_edges", static_cast<double>(dataset.num_edges));
  record.SetMetric("file_bytes", static_cast<double>(dataset.file_bytes));
  record.SetMetric("edges_per_second",
                   seconds > 0.0 ? dataset.num_edges / seconds : 0.0);
  record.SetMetric(
      "mb_per_second",
      seconds > 0.0 ? dataset.file_bytes / (1e6 * seconds) : 0.0);
  record.SetMetric("plain_seconds", plain_seconds);
  record.SetMetric("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
  AttachIoMetrics(&record, stream->Io(), dataset.num_edges, repeats);
  benchkit::AttachObsMetrics(&record, obs_snapshot);
  benchkit::AttachHostMetrics(&record);
  return record;
}

}  // namespace

StatusOr<BenchRecord> RunScenarioWithIngest(const Scenario& scenario,
                                            const ScenarioRunContext& context) {
  switch (scenario.kind) {
    case ScenarioKind::kInMemory:
      return benchkit::RunScenario(scenario, context.options);
    case ScenarioKind::kDiskPartition:
      return RunDiskPartition(scenario, context);
    case ScenarioKind::kIngestScan:
      return RunIngestScan(scenario, context);
    case ScenarioKind::kMicroKernel:
      // No dataset, no ingest: synthetic seeded state, timed in
      // benchkit itself.
      return benchkit::RunMicroKernels(scenario, context.options);
    case ScenarioKind::kMicroObs:
      return benchkit::RunObsKernels(scenario, context.options);
    case ScenarioKind::kServe:
      // Serving traffic over the in-memory dataset loader (serve
      // scenarios pin Table III codes, not catalog recipes).
      return serve::RunServeScenario(scenario, context.options);
  }
  return Status::Internal("unhandled scenario kind");
}

}  // namespace ingest
}  // namespace tpsl
