#include "benchkit/runner.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "benchkit/measure.h"
#include "exec/thread_pool.h"
#include "graph/datasets.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "partition/partitioner.h"
#include "util/memory.h"

namespace tpsl {
namespace benchkit {

void AttachObsMetrics(BenchRecord* record,
                      const obs::MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    if (value != 0) {
      record->SetMetric("obs/" + name, static_cast<double>(value));
    }
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (value != 0.0) {
      record->SetMetric("obs/" + name, value);
    }
  }
  for (const obs::MetricsSnapshot::HistogramRow& row : snapshot.histograms) {
    if (row.summary.count == 0) {
      continue;
    }
    record->SetMetric("obs/" + row.name + "/count",
                      static_cast<double>(row.summary.count));
    record->SetMetric("obs/" + row.name + "/p50", row.summary.p50);
    record->SetMetric("obs/" + row.name + "/p90", row.summary.p90);
    record->SetMetric("obs/" + row.name + "/p99", row.summary.p99);
  }
}

void AttachHostMetrics(BenchRecord* record) {
  // hardware_concurrency() may return 0 when undeterminable; report it
  // as-is (0 reads as "unknown", and the metric is informational).
  record->SetMetric(
      "hw_threads",
      static_cast<double>(std::thread::hardware_concurrency()));
}

StatusOr<BenchRecord> RunScenario(const Scenario& scenario,
                                  const RunScenarioOptions& options) {
  if (scenario.kind != ScenarioKind::kInMemory) {
    // Disk-backed kinds live in the ingest layer (which depends on
    // benchkit, not the other way around); tools/bench_runner routes
    // every kind through ingest::RunScenarioWithIngest.
    return Status::FailedPrecondition(
        "scenario '" + scenario.name +
        "' streams from disk; run it through the ingest-aware runner "
        "(ingest::RunScenarioWithIngest / tools/bench_runner)");
  }
  const int shift = scenario.scale_shift + options.extra_scale_shift;
  // Scope the RSS high-water mark to this scenario; without the reset
  // every scenario after the first would inherit the largest earlier
  // peak (the kernel counter never decreases). Where the reset is
  // unsupported the metric degrades to the lifetime peak — still a
  // valid upper bound, and it is informational, never gated.
  ResetPeakRss();
  TPSL_ASSIGN_OR_RETURN(std::vector<Edge> edges,
                        LoadDataset(scenario.dataset, shift));
  // Resolve 0-means-hardware here, not just inside the partitioner:
  // the record's threads field is an identity dimension and FromJson
  // (rightly) rejects 0, so an unresolved count would emit a baseline
  // file the next --check cannot read back.
  const uint32_t threads = exec::ResolveThreadCount(
      options.threads_override != 0 ? options.threads_override
                                    : scenario.threads);
  PartitionConfig config;
  config.num_partitions = scenario.k;
  config.seed = scenario.seed;
  config.exec.threads = threads;
  // Repeat-scoped obs snapshots: the registry is reset before each
  // repeat, and the record carries the snapshot of the repeat whose
  // timing it reports, so an obs counter describes one run.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  Measurement m;
  obs::MetricsSnapshot obs_snapshot;
  for (int repeat = 0; repeat < std::max(options.repeats, 1); ++repeat) {
    registry.Reset();
    TPSL_ASSIGN_OR_RETURN(
        const Measurement again,
        MeasureOnEdges(scenario.partitioner, scenario.dataset, edges,
                       config));
    if (repeat == 0) {
      m = again;
      obs_snapshot = registry.Snapshot();
    } else if (again.seconds < m.seconds) {
      m.seconds = again.seconds;
      m.stats.phase_seconds = again.stats.phase_seconds;
      obs_snapshot = registry.Snapshot();
    }
  }

  BenchRecord record;
  record.scenario = scenario.name;
  record.partitioner = scenario.partitioner;
  record.dataset = scenario.dataset;
  record.k = scenario.k;
  record.scale_shift = shift;
  record.seed = scenario.seed;
  record.threads = threads;
  record.SetMetric("seconds", m.seconds);
  record.SetMetric("replication_factor", m.replication_factor);
  record.SetMetric("measured_alpha", m.measured_alpha);
  record.SetMetric("state_bytes", static_cast<double>(m.state_bytes));
  record.SetMetric("num_edges", static_cast<double>(edges.size()));
  record.SetMetric("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
  for (const auto& [phase, seconds] : m.stats.phase_seconds) {
    record.SetMetric("phase_seconds/" + phase, seconds);
    // Phase throughput: edges pushed through the phase's loop per
    // second. Every phase is one (or more) full passes over the edge
    // set, so |E| / phase time is the natural rate; "partitioning" is
    // the gated hot-loop number (see DefaultToleranceFor).
    if (seconds > 0.0 && !edges.empty()) {
      record.SetMetric("edges_per_sec/" + phase,
                       static_cast<double>(edges.size()) / seconds);
    }
  }
  AttachObsMetrics(&record, obs_snapshot);
  AttachHostMetrics(&record);
  return record;
}

}  // namespace benchkit
}  // namespace tpsl
