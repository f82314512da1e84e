#ifndef TPSL_BENCHKIT_RUNNER_H_
#define TPSL_BENCHKIT_RUNNER_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "benchkit/record.h"
#include "benchkit/scenario.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace tpsl {
namespace benchkit {

/// How a scenario is run (ingest::RunScenarioWithIngest runs every
/// kind; the helpers below are what its per-kind runners share).
struct RunScenarioOptions {
  /// Additional dataset shrink on top of the scenario's pinned
  /// scale_shift. Used by smoke runs to finish in milliseconds; must
  /// be 0 when the result is meant to be compared against baselines.
  int extra_scale_shift = 0;
  /// Timing repetitions; every reported value comes from the fastest
  /// repeat (a stable lower bound, standard bench practice — scheduler
  /// noise only ever adds time), and so does the record's obs snapshot.
  int repeats = 3;
  /// Overrides the scenario's pinned worker count (tools expose it as
  /// --threads). The emitted record carries the effective count, so a
  /// --check against baselines pinned at a different count fails as
  /// config drift instead of comparing unlike runs. 0 = scenario's.
  uint32_t threads_override = 0;
};

/// The record of one run of `scenario` before any metric is set: the
/// identity fields, with scale_shift = scenario.scale_shift +
/// extra_scale_shift and threads resolved from `threads_override` (or
/// the scenario's pinned count when 0). Resolved to a concrete count,
/// never 0: the record's threads field is an identity dimension and
/// FromJson rejects 0, so an unresolved value would emit a baseline
/// the next --check cannot read. Runners configure their workers from
/// the returned record, so the record and the run cannot disagree.
BenchRecord ScenarioRecord(const Scenario& scenario, int extra_scale_shift,
                           uint32_t threads_override);

/// Workload shrink for smoke runs, on the dataset scale_shift
/// convention: each +1 halves `base`, floored at 1024 ops so a timer
/// never reads zero.
uint64_t ScaleOps(uint64_t base, int shift);

/// The kept repeat of RunRepeats and the obs registry snapshot taken
/// right after it.
template <typename Result>
struct BestRepeat {
  Result result;
  obs::MetricsSnapshot obs;
};

/// The one repeat loop of the scenario runners: calls `run()`
/// max(repeats, 1) times, resetting the default obs registry before
/// each call so a snapshot describes one run, and keeps the first
/// result and any later one for which `better(result, kept)` holds,
/// together with its snapshot. The first error ends the loop.
template <typename Result, typename Run, typename Better>
StatusOr<BestRepeat<Result>> RunRepeats(int repeats, Run&& run,
                                        Better&& better) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  std::optional<BestRepeat<Result>> best;
  for (int repeat = 0; repeat < std::max(repeats, 1); ++repeat) {
    registry.Reset();
    TPSL_ASSIGN_OR_RETURN(Result result, run());
    if (!best || better(result, best->result)) {
      best = BestRepeat<Result>{std::move(result), registry.Snapshot()};
    }
  }
  return std::move(*best);
}

/// One timed run of a micro-kernel: wall time of the timed region, the
/// ops it performed (the numerator of its rate) and a checksum folded
/// from its results.
struct KernelResult {
  double seconds = 0.0;
  uint64_t ops = 0;
  uint64_t checksum = 0;
};

/// One row of a kernel table. `run` rebuilds its seeded state from
/// scratch outside the timed region, so every repeat computes the same
/// checksum.
struct Kernel {
  std::string name;
  std::function<StatusOr<KernelResult>()> run;
};

/// The kernel-table driver of the micro-kernel scenarios
/// (micro_state_kernel, micro_obs): runs each kernel best-of-repeats —
/// a checksum that differs between repeats fails the scenario, since
/// the gate must not paper over a nondeterministic kernel — and
/// returns a record with per-kernel "phase_seconds/<kernel>" and
/// "edges_per_sec/<kernel>" (ops per second), "seconds" (sum of kernel
/// times, gated upper-only like any scenario), "num_edges" (sum of
/// ops) and "checksum_low32", the low 32 bits of every kernel's
/// checksum folded in table order: deterministic, so the baseline gate
/// doubles as a behavioral identity check (and the fold defeats
/// dead-code elimination). Kernels are single-threaded, so the record
/// says threads=1 whatever the override.
StatusOr<BenchRecord> RunKernelTable(const Scenario& scenario,
                                     const RunScenarioOptions& options,
                                     const std::vector<Kernel>& kernels);

/// Folds an obs::MetricsRegistry snapshot into `record` as
/// informational "obs/<name>" metrics (histograms expand to
/// /count,/p50,/p90,/p99; zero-valued metrics are skipped). Runners
/// take the snapshot from RunRepeats, so it is scoped to the repeat
/// whose values the record reports.
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
