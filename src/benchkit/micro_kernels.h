#ifndef TPSL_BENCHKIT_MICRO_KERNELS_H_
#define TPSL_BENCHKIT_MICRO_KERNELS_H_

#include <string>
#include <vector>

#include "benchkit/runner.h"
#include "benchkit/scenario.h"

namespace tpsl {
namespace benchkit {

/// Names of the micro-kernels of MicroKernels, in run order. Exposed
/// so the comparator and tools/bench_runner can name the per-kernel
/// metrics ("phase_seconds/<name>" and "edges_per_sec/<name>").
///
///   twops_pick       2PS-L two-candidate pick + placement (Phase2State)
///   hdrf_pick        HDRF full-k argmax pick + commit
///   bitset_ops       DenseBitset popcount / intersection / or sweeps
///   replica_set_test ReplicaMatrix random set/test mix
const std::vector<std::string>& MicroKernelNames();

/// The kernel table of the micro_state_kernel scenario, for
/// RunKernelTable: the partitioner-state kernel's hot loops on
/// synthetic state seeded from scenario.seed (no dataset, no
/// partitioner), at scenario.k partitions. `shift` (the smoke run's
/// extra_scale_shift) shrinks every workload.
std::vector<Kernel> MicroKernels(const Scenario& scenario, int shift);

}  // namespace benchkit
}  // namespace tpsl

#endif  // TPSL_BENCHKIT_MICRO_KERNELS_H_
