#ifndef TPSL_BENCHKIT_RUNNER_H_
#define TPSL_BENCHKIT_RUNNER_H_

#include "benchkit/record.h"
#include "benchkit/scenario.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace tpsl {
namespace benchkit {

struct RunScenarioOptions {
  /// Additional dataset shrink on top of the scenario's pinned
  /// scale_shift. Used by smoke runs to finish in milliseconds; must
  /// be 0 when the result is meant to be compared against baselines.
  int extra_scale_shift = 0;
  /// Timing repetitions; "seconds" and the per-phase times report the
  /// fastest repeat (a stable lower bound, standard bench practice —
  /// scheduler noise only ever adds time). Deterministic metrics are
  /// identical across repeats and taken from the first.
  int repeats = 3;
  /// Overrides the scenario's pinned worker count (tools expose it as
  /// --threads). The emitted record carries the effective count, so a
  /// --check against baselines pinned at a different count fails as
  /// config drift instead of comparing unlike runs. 0 = scenario's.
  uint32_t threads_override = 0;
};

/// Executes one scenario: materializes its dataset, runs the
/// partitioner, and returns a record with the gated metrics
/// ("seconds", "replication_factor", "measured_alpha", "state_bytes",
/// "num_edges") plus informational ones ("peak_rss_bytes",
/// "phase_seconds/<phase>").
StatusOr<BenchRecord> RunScenario(const Scenario& scenario,
                                  const RunScenarioOptions& options = {});

/// Folds an obs::MetricsRegistry snapshot into `record` as
/// informational "obs/<name>" metrics (histograms expand to
/// /count,/p50,/p90,/p99; zero-valued metrics are skipped). Callers
/// Reset() the registry before the measured work so the snapshot is
/// scoped to it; repeated runners reset before every repeat and attach
/// the snapshot of the repeat whose timing the record reports.
void AttachObsMetrics(BenchRecord* record,
                      const obs::MetricsSnapshot& snapshot);

/// Stamps host-environment context into `record` as informational
/// metrics — currently "hw_threads", the effective
/// std::thread::hardware_concurrency of the machine that produced the
/// record. Comparing a baseline pinned on one machine against a run on
/// another is legitimate (the time gates are sized for it); this makes
/// the shape difference visible in the records instead of leaving the
/// reader to guess.
void AttachHostMetrics(BenchRecord* record);

}  // namespace benchkit
}  // namespace tpsl

#endif  // TPSL_BENCHKIT_RUNNER_H_
