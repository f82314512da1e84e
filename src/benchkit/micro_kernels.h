#ifndef TPSL_BENCHKIT_MICRO_KERNELS_H_
#define TPSL_BENCHKIT_MICRO_KERNELS_H_

#include "benchkit/record.h"
#include "benchkit/runner.h"
#include "benchkit/scenario.h"
#include "util/status.h"

namespace tpsl {
namespace benchkit {

/// Names of the micro-kernels run by RunMicroKernels, in run order.
/// Exposed so tools/bench_runner can assert the per-kernel metrics
/// exist ("phase_seconds/<name>" and "edges_per_sec/<name>").
///
///   twops_pick       2PS-L two-candidate pick + placement (Phase2State)
///   hdrf_pick        HDRF full-k argmax pick + commit
///   bitset_ops       DenseBitset popcount / intersection / or sweeps
///   replica_set_test ReplicaMatrix random set/test mix
const std::vector<std::string>& MicroKernelNames();

/// Times the partitioner-state kernel's hot loops on synthetic seeded
/// state (no dataset, no partitioner): each kernel runs over a fixed
/// deterministic workload, repeats keep the fastest time. The record
/// carries "seconds" (sum of kernel times, gated upper-only like any
/// scenario), per-kernel "phase_seconds/<kernel>" and
/// "edges_per_sec/<kernel>" rates, and a "checksum_low32" folded from
/// every pick — deterministic, so the baseline gate doubles as a
/// behavioral identity check (and the fold defeats dead-code
/// elimination). options.extra_scale_shift shrinks the workloads for
/// smoke runs.
StatusOr<BenchRecord> RunMicroKernels(const Scenario& scenario,
                                      const RunScenarioOptions& options);

}  // namespace benchkit
}  // namespace tpsl

#endif  // TPSL_BENCHKIT_MICRO_KERNELS_H_
