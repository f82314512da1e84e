#include "benchkit/obs_kernels.h"

#include <cstdint>
#include <vector>

#include "benchkit/measure.h"
#include "benchkit/runner.h"
#include "graph/datasets.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"
#include "util/timer.h"

namespace tpsl {
namespace benchkit {
namespace {

// Op counts at shift 0, sized so the whole scenario stays tens of
// milliseconds in a release build; smoke runs shrink them by ScaleOps.
constexpr uint64_t kSpanOffOps = 1u << 20;
constexpr uint64_t kSpanOnOps = 1u << 16;
constexpr uint64_t kCounterOps = 1u << 20;
constexpr uint64_t kHistOps = 1u << 19;
// The tracing-off partitioner run: the OK graph four shifts below the
// bench size keeps this the most expensive kernel without dominating
// the scenario.
constexpr int kPartitionShift = 4;

/// Disabled-span hot path: exactly the branch every instrumented scope
/// pays when tracing is off. The checksum folds the ring-write delta,
/// which must be zero — a nonzero delta means the no-op path emitted.
KernelResult SpanOff(uint64_t ops) {
  const bool was_enabled = obs::TracingEnabled();
  obs::SetTracingEnabled(false);
  const uint64_t emitted_before = obs::GetTraceStats().emitted;
  WallTimer timer;
  for (uint64_t i = 0; i < ops; ++i) {
    obs::TraceSpan span("obs.kernel_span", "obs");
  }
  const double seconds = timer.ElapsedSeconds();
  const uint64_t delta = obs::GetTraceStats().emitted - emitted_before;
  obs::SetTracingEnabled(was_enabled);
  return {seconds, ops, HashCombine(ops, delta)};
}

/// Full emit path: clock reads plus the seqlock ring-slot write. Runs
/// with tracing forced on; if this kernel enabled it (normal --check
/// runs trace nothing), its spam is dropped again afterwards so a
/// later --trace export only holds real events.
KernelResult SpanOn(uint64_t ops) {
  const bool was_enabled = obs::TracingEnabled();
  obs::SetTracingEnabled(true);
  const uint64_t emitted_before = obs::GetTraceStats().emitted;
  WallTimer timer;
  for (uint64_t i = 0; i < ops; ++i) {
    obs::TraceSpan span("obs.kernel_span", "obs");
  }
  const double seconds = timer.ElapsedSeconds();
  const uint64_t delta = obs::GetTraceStats().emitted - emitted_before;
  obs::SetTracingEnabled(was_enabled);
  if (!was_enabled) {
    obs::ResetTrace();
  }
  return {seconds, ops, HashCombine(ops, delta)};
}

/// Sharded counter increment on the default registry — the per-batch
/// accounting cost inside every scoring loop.
KernelResult CounterAdd(uint64_t ops) {
  obs::Counter* counter =
      obs::MetricsRegistry::Default().GetCounter("obs.kernel_counter");
  const uint64_t before = counter->Total();
  WallTimer timer;
  for (uint64_t i = 0; i < ops; ++i) {
    counter->Increment();
  }
  const double seconds = timer.ElapsedSeconds();
  return {seconds, ops, HashCombine(ops, counter->Total() - before)};
}

/// Log-bucketed histogram record over a seeded log-uniform nanosecond
/// workload (values pre-generated outside the timed region).
KernelResult HistRecord(uint64_t seed, uint64_t ops) {
  obs::Histogram* hist =
      obs::MetricsRegistry::Default().GetHistogram("obs.kernel_hist");
  SplitMix64 rng(seed);
  std::vector<uint64_t> values(ops);
  for (uint64_t& value : values) {
    value = rng.Next() >> (rng.Next() & 63);
  }
  const uint64_t before = hist->Summarize().count;
  WallTimer timer;
  for (uint64_t value : values) {
    hist->RecordNanos(value);
  }
  const double seconds = timer.ElapsedSeconds();
  uint64_t checksum = HashCombine(ops, hist->Summarize().count - before);
  // Fold the percentile buckets too: a broken bucket function is a
  // behavioral change even if the count survives.
  const obs::Histogram::Summary summary = hist->Summarize();
  checksum = HashCombine(
      checksum, obs::Histogram::BucketOf(
                    static_cast<uint64_t>(summary.p50 * 1e9)));
  checksum = HashCombine(
      checksum, obs::Histogram::BucketOf(
                    static_cast<uint64_t>(summary.p99 * 1e9)));
  return {seconds, ops, checksum};
}

/// End-to-end disabled-tracing proof: a real 2PS-L run on the OK
/// graph. The gate on the scenario's total "seconds" (and this
/// kernel's informational rate) catches instrumentation whose
/// disabled path stopped being free on actual partitioning work.
StatusOr<KernelResult> PartitionOff(uint32_t k, uint64_t seed, int shift) {
  const bool was_enabled = obs::TracingEnabled();
  obs::SetTracingEnabled(false);
  TPSL_ASSIGN_OR_RETURN(const std::vector<Edge> edges,
                        LoadDataset("OK", kPartitionShift + shift));
  PartitionConfig config;
  config.num_partitions = k;
  config.seed = seed;
  config.exec.threads = 1;
  TPSL_ASSIGN_OR_RETURN(const Measurement measurement,
                        MeasureOnEdges("2PS-L", "OK", edges, config));
  obs::SetTracingEnabled(was_enabled);
  KernelResult result;
  result.seconds = measurement.seconds;
  result.ops = edges.size();
  result.checksum = HashCombine(
      edges.size(),
      static_cast<uint64_t>(measurement.replication_factor * 1e9));
  return result;
}

}  // namespace

const std::vector<std::string>& ObsKernelNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "span_off", "span_on", "counter_add", "hist_record", "partition_off"};
  return *names;
}

std::vector<Kernel> ObsKernels(const Scenario& scenario, int shift) {
  const uint32_t k = scenario.k;
  const uint64_t seed = scenario.seed;
  const std::vector<std::string>& names = ObsKernelNames();
  // The checksum folds ring-write deltas, counter/histogram totals and
  // the partitioner's replication factor.
  return {
      {names[0], [=] { return SpanOff(ScaleOps(kSpanOffOps, shift)); }},
      {names[1], [=] { return SpanOn(ScaleOps(kSpanOnOps, shift)); }},
      {names[2], [=] { return CounterAdd(ScaleOps(kCounterOps, shift)); }},
      {names[3], [=] { return HistRecord(seed, ScaleOps(kHistOps, shift)); }},
      {names[4], [=] { return PartitionOff(k, seed, shift); }},
  };
}

}  // namespace benchkit
}  // namespace tpsl
