#include "serve/serve_scenario.h"

#include <algorithm>
#include <vector>

#include "benchkit/runner.h"
#include "exec/thread_pool.h"
#include "graph/datasets.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "serve/traffic.h"
#include "util/memory.h"

namespace tpsl {
namespace serve {
namespace {

/// Smoke-run shrink for the per-reader lookup count, mirroring the
/// micro-kernel ScaleOps convention (dataset shrink comes from
/// extra_scale_shift through LoadDataset; the lookup budget follows).
uint64_t ScaleLookups(uint64_t base, int extra_shift) {
  if (extra_shift <= 0) {
    return base;
  }
  const uint64_t scaled = base >> std::min(extra_shift, 16);
  return std::max<uint64_t>(scaled, 1024);
}

bool DeterministicFieldsMatch(const TrafficResult& a, const TrafficResult& b) {
  return a.adds == b.adds && a.removals == b.removals &&
         a.live_edges == b.live_edges &&
         a.epochs_published == b.epochs_published &&
         a.rebootstraps == b.rebootstraps && a.lookups == b.lookups &&
         a.replication_factor == b.replication_factor &&
         a.measured_alpha == b.measured_alpha;
}

}  // namespace

StatusOr<benchkit::BenchRecord> RunServeScenario(
    const benchkit::Scenario& scenario,
    const benchkit::RunScenarioOptions& options) {
  if (scenario.kind != benchkit::ScenarioKind::kServe) {
    return Status::FailedPrecondition("scenario '" + scenario.name +
                                      "' is not a serve scenario");
  }
  const int shift = scenario.scale_shift + options.extra_scale_shift;
  ResetPeakRss();
  TPSL_ASSIGN_OR_RETURN(const std::vector<Edge> edges,
                        LoadDataset(scenario.dataset, shift));
  const uint32_t readers = exec::ResolveThreadCount(
      options.threads_override != 0 ? options.threads_override
                                    : scenario.threads);

  TrafficOptions traffic;
  traffic.config.num_partitions = scenario.k;
  traffic.config.seed = scenario.seed;
  traffic.config.exec.threads = 1;  // the writer path is sequential
  traffic.readers = readers;
  traffic.lookups_per_reader =
      ScaleLookups(uint64_t{1} << 18, options.extra_scale_shift);
  traffic.mutation_fraction = 0.2;
  traffic.removal_interval = 8;
  traffic.publish_batch_edges = 256;
  // Low enough that the 20% mutation tail crosses it mid-run (so every
  // baseline exercises a live re-bootstrap), and adoption is pinned a
  // fixed publish count after the fork to keep placements exact.
  traffic.rebootstrap_threshold = 0.1;
  traffic.adopt_after_publishes = 4;
  traffic.seed = scenario.seed;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Histogram* latency = registry.GetHistogram("serve.lookup_seconds");
  traffic.lookup_histogram = latency;

  // Repeat-scoped obs snapshots, as in benchkit::RunScenario: the
  // registry is reset before each repeat, and the record carries the
  // snapshot of the repeat whose throughput and latency it reports.
  TrafficResult first;
  TrafficResult best;
  obs::Histogram::Summary best_latency;
  obs::MetricsSnapshot obs_snapshot;
  const int repeats = std::max(options.repeats, 1);
  for (int repeat = 0; repeat < repeats; ++repeat) {
    registry.Reset();
    TPSL_ASSIGN_OR_RETURN(const TrafficResult result,
                          RunTraffic(edges, traffic));
    const obs::Histogram::Summary summary = latency->Summarize();
    if (repeat == 0) {
      first = result;
      best = result;
      best_latency = summary;
      obs_snapshot = registry.Snapshot();
    } else {
      if (!DeterministicFieldsMatch(first, result)) {
        return Status::Internal("serve scenario '" + scenario.name +
                                "' nondeterministic across repeats");
      }
      if (result.lookup_qps > best.lookup_qps) {
        best = result;
        best_latency = summary;
        obs_snapshot = registry.Snapshot();
      }
    }
  }

  benchkit::BenchRecord record;
  record.scenario = scenario.name;
  record.partitioner = scenario.partitioner;
  record.dataset = scenario.dataset;
  record.k = scenario.k;
  record.scale_shift = shift;
  record.seed = scenario.seed;
  record.threads = readers;
  record.SetMetric("seconds",
                   std::max(best.reader_seconds, best.writer_seconds));
  record.SetMetric("num_edges", static_cast<double>(edges.size()));
  record.SetMetric("live_edges", static_cast<double>(first.live_edges));
  record.SetMetric("replication_factor", first.replication_factor);
  record.SetMetric("measured_alpha", first.measured_alpha);
  record.SetMetric("state_bytes", static_cast<double>(first.state_bytes));
  record.SetMetric("lookup_qps", best.lookup_qps);
  record.SetMetric("mutation_qps", best.mutation_qps);
  record.SetMetric("lookup_p50_seconds", best_latency.p50);
  record.SetMetric("lookup_p99_seconds", best_latency.p99);
  record.SetMetric("epochs_published",
                   static_cast<double>(first.epochs_published));
  record.SetMetric("rebootstraps", static_cast<double>(first.rebootstraps));
  record.SetMetric("lookups", static_cast<double>(first.lookups));
  record.SetMetric("mutations",
                   static_cast<double>(first.adds + first.removals));
  record.SetMetric("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
  record.SetMetric("phase_seconds/readers", best.reader_seconds);
  record.SetMetric("phase_seconds/writer", best.writer_seconds);
  benchkit::AttachObsMetrics(&record, obs_snapshot);
  benchkit::AttachHostMetrics(&record);
  return record;
}

}  // namespace serve
}  // namespace tpsl
