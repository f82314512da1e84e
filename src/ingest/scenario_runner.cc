#include "ingest/scenario_runner.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "benchkit/micro_kernels.h"
#include "benchkit/obs_kernels.h"
#include "benchkit/runner.h"
#include "graph/datasets.h"
#include "graph/in_memory_edge_stream.h"
#include "ingest/catalog.h"
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

/// kInMemory and kDiskPartition: partition the scenario's stream
/// best-of-repeats. The kinds differ only in the stream, where the RSS
/// scope starts, the record's scale_shift (catalog recipes pin a disk
/// dataset's size, so the smoke shrink does not apply) and the
/// disk-only metrics.
StatusOr<BenchRecord> RunPartitionScenario(const Scenario& scenario,
                                           const ScenarioRunContext& context) {
  const bool in_memory = scenario.kind == ScenarioKind::kInMemory;
  BenchRecord record = benchkit::ScenarioRecord(
      scenario, in_memory ? context.options.extra_scale_shift : 0,
      context.options.threads_override);
  // The materialized edge list is part of an in-memory run's footprint,
  // so the RSS scope starts before the load; a disk dataset's
  // get-or-generate is harness work, so the scope starts after it.
  std::unique_ptr<EdgeStream> stream;
  uint64_t num_edges = 0;
  bool rss_scoped = false;
  if (in_memory) {
    rss_scoped = ResetPeakRss();
    TPSL_ASSIGN_OR_RETURN(std::vector<Edge> edges,
                          LoadDataset(scenario.dataset, record.scale_shift));
    num_edges = edges.size();
    stream = std::make_unique<InMemoryEdgeStream>(std::move(edges));
  } else {
    TPSL_ASSIGN_OR_RETURN(const EnsureResult dataset,
                          EnsureScenarioDataset(scenario, context));
    rss_scoped = ResetPeakRss();
    TPSL_ASSIGN_OR_RETURN(stream, OpenDatasetStream(dataset.path));
    num_edges = dataset.num_edges;
  }

  PartitionConfig config;
  config.num_partitions = scenario.k;
  config.seed = scenario.seed;
  // The execution engine under the partitioner: at t>1 its workers
  // decode compressed blocks themselves; a raw file's prefetching
  // reader overlaps its freads with scoring at any thread count.
  config.exec.threads = record.threads;

  // Spill scenarios run the paper's full out-of-core loop: the
  // streaming sink pipeline writes assignments straight back to disk
  // (one compressed edge-block file per partition) instead of keeping
  // anything edge-sized resident.
  RunOptions run_options;
  if (scenario.spill) {
    run_options.spill_dir = context.spill_dir;
    run_options.spill_stem = scenario.name;
  }

  const int repeats = std::max(context.options.repeats, 1);
  // Peak RSS is taken after the first repeat: the memory one run
  // needs. A later repeat's mark also holds what the runs before it
  // left resident, so it would grow with --repeat.
  double rss = 0.0;
  bool first_repeat = true;
  // Fresh partitioner per repeat (they are single-shot); the stream is
  // reused — each pass re-reads it, so every repeat of a disk scenario
  // pays full I/O, matching the paper's dropped-cache discipline.
  // Spill repeats overwrite the same files.
  TPSL_ASSIGN_OR_RETURN(
      const benchkit::BestRepeat<RunResult> best_repeat,
      benchkit::RunRepeats<RunResult>(
          repeats,
          [&]() -> StatusOr<RunResult> {
            TPSL_ASSIGN_OR_RETURN(std::unique_ptr<Partitioner> partitioner,
                                  MakePartitioner(scenario.partitioner));
            StatusOr<RunResult> result =
                RunPartitioner(*partitioner, *stream, config, run_options);
            if (first_repeat) {
              rss = static_cast<double>(PeakRssBytes());
              first_repeat = false;
            }
            return result;
          },
          [](const RunResult& a, const RunResult& b) {
            return a.stats.TotalSeconds() < b.stats.TotalSeconds();
          }));
  const RunResult& best = best_repeat.result;

  record.SetMetric("seconds", best.stats.TotalSeconds());
  record.SetMetric("replication_factor", best.quality.replication_factor);
  record.SetMetric("measured_alpha", best.quality.measured_alpha);
  record.SetMetric("state_bytes",
                   static_cast<double>(best.stats.state_bytes));
  record.SetMetric("num_edges", static_cast<double>(num_edges));
  record.SetMetric("peak_rss_bytes", rss);
  // Gated (upper-only): a disk-backed run whose resident memory starts
  // scaling with |E| again fails --check — the out-of-core honesty
  // contract this subsystem exists to keep. Only emitted when the RSS
  // high-water mark could be scoped to this scenario; the unsupported
  // fallback is the process-lifetime peak, which would gate on
  // whichever scenario ran earlier, not on this one.
  if (!in_memory && rss_scoped) {
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
  if (!in_memory) {
    AttachIoMetrics(&record, stream->Io(), num_edges, repeats);
  }
  for (const auto& [phase, seconds] : best.stats.phase_seconds) {
    record.SetMetric("phase_seconds/" + phase, seconds);
    // Phase throughput: edges pushed through the phase's loop per
    // second. Every phase is one (or more) full passes over the edge
    // set, so |E| / phase time is the natural rate; "partitioning" is
    // the gated hot-loop number (see DefaultToleranceFor).
    if (seconds > 0.0 && num_edges > 0) {
      record.SetMetric("edges_per_sec/" + phase,
                       static_cast<double>(num_edges) / seconds);
    }
  }
  for (const auto& [pass, seconds] : best.stats.pass_seconds) {
    record.SetMetric("pass_seconds/" + pass, seconds);
  }
  benchkit::AttachObsMetrics(&record, best_repeat.obs);
  benchkit::AttachHostMetrics(&record);
  return record;
}

/// kIngestScan: full scans of the catalog file through
/// OpenDatasetStream, best-of-repeats.
StatusOr<BenchRecord> RunIngestScan(const Scenario& scenario,
                                    const ScenarioRunContext& context) {
  // Catalog recipes pin the dataset size: no smoke shrink.
  BenchRecord record = benchkit::ScenarioRecord(
      scenario, 0, context.options.threads_override);
  TPSL_ASSIGN_OR_RETURN(const EnsureResult dataset,
                        EnsureScenarioDataset(scenario, context));
  ResetPeakRss();
  TPSL_ASSIGN_OR_RETURN(std::unique_ptr<EdgeStream> stream,
                        OpenDatasetStream(dataset.path));
  const int repeats = std::max(context.options.repeats, 1);
  TPSL_ASSIGN_OR_RETURN(
      const benchkit::BestRepeat<double> best,
      benchkit::RunRepeats<double>(
          repeats,
          [&]() -> StatusOr<double> {
            uint64_t count = 0;
            WallTimer timer;
            TPSL_RETURN_IF_ERROR(
                ForEachEdge(*stream, [&count](const Edge&) { ++count; }));
            const double elapsed = timer.ElapsedSeconds();
            if (count != dataset.num_edges) {
              return Status::Internal(
                  "scan of " + dataset.path + " delivered " +
                  std::to_string(count) + " of " +
                  std::to_string(dataset.num_edges) + " edges");
            }
            return elapsed;
          },
          std::less<double>()));
  const double seconds = best.result;

  record.SetMetric("seconds", seconds);
  record.SetMetric("num_edges", static_cast<double>(dataset.num_edges));
  record.SetMetric("file_bytes", static_cast<double>(dataset.file_bytes));
  record.SetMetric("edges_per_second",
                   seconds > 0.0 ? dataset.num_edges / seconds : 0.0);
  record.SetMetric(
      "mb_per_second",
      seconds > 0.0 ? dataset.file_bytes / (1e6 * seconds) : 0.0);
  record.SetMetric("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
  AttachIoMetrics(&record, stream->Io(), dataset.num_edges, repeats);
  benchkit::AttachObsMetrics(&record, best.obs);
  benchkit::AttachHostMetrics(&record);
  return record;
}

}  // namespace

StatusOr<BenchRecord> RunScenarioWithIngest(const Scenario& scenario,
                                            const ScenarioRunContext& context) {
  switch (scenario.kind) {
    case ScenarioKind::kInMemory:
    case ScenarioKind::kDiskPartition:
      return RunPartitionScenario(scenario, context);
    case ScenarioKind::kIngestScan:
      return RunIngestScan(scenario, context);
    case ScenarioKind::kMicroKernel:
      // No dataset, no ingest: synthetic seeded state, timed by
      // benchkit's kernel-table driver.
      return benchkit::RunKernelTable(
          scenario, context.options,
          benchkit::MicroKernels(scenario,
                                 context.options.extra_scale_shift));
    case ScenarioKind::kMicroObs:
      return benchkit::RunKernelTable(
          scenario, context.options,
          benchkit::ObsKernels(scenario, context.options.extra_scale_shift));
    case ScenarioKind::kServe:
      // Serving traffic over the in-memory dataset loader (serve
      // scenarios pin Table III codes, not catalog recipes).
      return serve::RunServeScenario(scenario, context.options);
  }
  return Status::Internal("unhandled scenario kind");
}

}  // namespace ingest
}  // namespace tpsl
