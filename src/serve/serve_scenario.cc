#include "serve/serve_scenario.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "benchkit/runner.h"
#include "graph/datasets.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "serve/traffic.h"
#include "util/memory.h"

namespace tpsl {
namespace serve {
namespace {

/// One serving repeat: the traffic result and the lookup latency
/// summary of the obs histogram right after it.
struct ServeRepeat {
  TrafficResult traffic;
  obs::Histogram::Summary latency;
};

bool DeterministicFieldsMatch(const TrafficResult& a, const TrafficResult& b) {
  return a.adds == b.adds && a.removals == b.removals &&
         a.live_edges == b.live_edges &&
         a.epochs_published == b.epochs_published &&
         a.rebootstraps == b.rebootstraps && a.lookups == b.lookups &&
         a.replication_factor == b.replication_factor &&
         a.measured_alpha == b.measured_alpha &&
         a.state_bytes == b.state_bytes;
}

}  // namespace

StatusOr<benchkit::BenchRecord> RunServeScenario(
    const benchkit::Scenario& scenario,
    const benchkit::RunScenarioOptions& options) {
  // The record's threads field is the reader count.
  benchkit::BenchRecord record = benchkit::ScenarioRecord(
      scenario, options.extra_scale_shift, options.threads_override);
  ResetPeakRss();
  TPSL_ASSIGN_OR_RETURN(const std::vector<Edge> edges,
                        LoadDataset(scenario.dataset, record.scale_shift));

  TrafficOptions traffic;
  traffic.config.num_partitions = scenario.k;
  traffic.config.seed = scenario.seed;
  traffic.config.exec.threads = 1;  // the writer path is sequential
  traffic.readers = record.threads;
  // The lookup budget shrinks with the dataset in smoke runs.
  traffic.lookups_per_reader =
      benchkit::ScaleOps(uint64_t{1} << 18, options.extra_scale_shift);
  traffic.mutation_fraction = 0.2;
  traffic.removal_interval = 8;
  traffic.publish_batch_edges = 256;
  // Low enough that the 20% mutation tail crosses it mid-run (so every
  // baseline exercises a live re-bootstrap), and adoption is pinned a
  // fixed publish count after the fork to keep placements exact.
  traffic.rebootstrap_threshold = 0.1;
  traffic.adopt_after_publishes = 4;
  traffic.seed = scenario.seed;
  obs::Histogram* latency =
      obs::MetricsRegistry::Default().GetHistogram("serve.lookup_seconds");
  traffic.lookup_histogram = latency;

  // Placement-side values must not vary between repeats (checked
  // against the first); the best-QPS repeat is reported.
  std::optional<TrafficResult> first;
  TPSL_ASSIGN_OR_RETURN(
      const benchkit::BestRepeat<ServeRepeat> best_repeat,
      benchkit::RunRepeats<ServeRepeat>(
          options.repeats,
          [&]() -> StatusOr<ServeRepeat> {
            TPSL_ASSIGN_OR_RETURN(const TrafficResult result,
                                  RunTraffic(edges, traffic));
            if (!first.has_value()) {
              first = result;
            } else if (!DeterministicFieldsMatch(*first, result)) {
              return Status::Internal("serve scenario '" + scenario.name +
                                      "' nondeterministic across repeats");
            }
            return ServeRepeat{result, latency->Summarize()};
          },
          [](const ServeRepeat& a, const ServeRepeat& b) {
            return a.traffic.lookup_qps > b.traffic.lookup_qps;
          }));
  const TrafficResult& best = best_repeat.result.traffic;

  record.SetMetric("seconds",
                   std::max(best.reader_seconds, best.writer_seconds));
  record.SetMetric("num_edges", static_cast<double>(edges.size()));
  record.SetMetric("live_edges", static_cast<double>(best.live_edges));
  record.SetMetric("replication_factor", best.replication_factor);
  record.SetMetric("measured_alpha", best.measured_alpha);
  record.SetMetric("state_bytes", static_cast<double>(best.state_bytes));
  record.SetMetric("lookup_qps", best.lookup_qps);
  record.SetMetric("mutation_qps", best.mutation_qps);
  record.SetMetric("lookup_p50_seconds", best_repeat.result.latency.p50);
  record.SetMetric("lookup_p99_seconds", best_repeat.result.latency.p99);
  record.SetMetric("epochs_published",
                   static_cast<double>(best.epochs_published));
  record.SetMetric("rebootstraps", static_cast<double>(best.rebootstraps));
  record.SetMetric("lookups", static_cast<double>(best.lookups));
  record.SetMetric("mutations",
                   static_cast<double>(best.adds + best.removals));
  record.SetMetric("peak_rss_bytes", static_cast<double>(PeakRssBytes()));
  record.SetMetric("phase_seconds/readers", best.reader_seconds);
  record.SetMetric("phase_seconds/writer", best.writer_seconds);
  benchkit::AttachObsMetrics(&record, best_repeat.obs);
  benchkit::AttachHostMetrics(&record);
  return record;
}

}  // namespace serve
}  // namespace tpsl
