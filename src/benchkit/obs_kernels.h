#ifndef TPSL_BENCHKIT_OBS_KERNELS_H_
#define TPSL_BENCHKIT_OBS_KERNELS_H_

#include <string>
#include <vector>

#include "benchkit/runner.h"
#include "benchkit/scenario.h"

namespace tpsl {
namespace benchkit {

/// The observability overhead kernels, in the order micro_obs times
/// them:
///   span_off      - TraceSpan construct/destruct with tracing off:
///                   the cost every instrumented scope pays always.
///   span_on       - full span emit into the thread ring with tracing
///                   on (clock reads + seqlock slot write).
///   counter_add   - sharded Counter::Add on the default registry.
///   hist_record   - log-bucketed Histogram::RecordNanos.
///   partition_off - a real 2PS-L run (OK graph) with tracing off:
///                   end-to-end proof the disabled layer stays at
///                   noise level on actual partitioning work.
/// The rates of span_off / counter_add / hist_record are gated by
/// --check (see DefaultToleranceFor); span_on and partition_off are
/// informational context.
const std::vector<std::string>& ObsKernelNames();

/// The kernel table of the micro_obs scenario, for RunKernelTable
/// (seeded from scenario.seed; partition_off runs at scenario.k).
/// `shift` (the smoke run's extra_scale_shift) shrinks every workload.
std::vector<Kernel> ObsKernels(const Scenario& scenario, int shift);

}  // namespace benchkit
}  // namespace tpsl

#endif  // TPSL_BENCHKIT_OBS_KERNELS_H_
