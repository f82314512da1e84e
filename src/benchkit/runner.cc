#include "benchkit/runner.h"

#include <thread>

#include "exec/thread_pool.h"
#include "util/random.h"

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

BenchRecord ScenarioRecord(const Scenario& scenario, int extra_scale_shift,
                           uint32_t threads_override) {
  BenchRecord record;
  record.scenario = scenario.name;
  record.partitioner = scenario.partitioner;
  record.dataset = scenario.dataset;
  record.k = scenario.k;
  record.scale_shift = scenario.scale_shift + extra_scale_shift;
  record.seed = scenario.seed;
  record.threads = exec::ResolveThreadCount(
      threads_override != 0 ? threads_override : scenario.threads);
  return record;
}

uint64_t ScaleOps(uint64_t base, int shift) {
  constexpr uint64_t kMinOps = 1u << 10;
  const uint64_t scaled =
      shift >= 0 ? (shift < 63 ? base >> shift : 0) : base << (-shift);
  return scaled < kMinOps ? kMinOps : scaled;
}

StatusOr<BenchRecord> RunKernelTable(const Scenario& scenario,
                                     const RunScenarioOptions& options,
                                     const std::vector<Kernel>& kernels) {
  BenchRecord record = ScenarioRecord(scenario, options.extra_scale_shift,
                                      /*threads_override=*/1);
  double total_seconds = 0.0;
  uint64_t total_ops = 0;
  uint64_t folded_checksum = 0;
  for (const Kernel& kernel : kernels) {
    std::optional<uint64_t> checksum;
    TPSL_ASSIGN_OR_RETURN(
        const BestRepeat<KernelResult> best,
        RunRepeats<KernelResult>(
            options.repeats,
            [&]() -> StatusOr<KernelResult> {
              TPSL_ASSIGN_OR_RETURN(const KernelResult result, kernel.run());
              if (checksum.has_value() && *checksum != result.checksum) {
                return Status::Internal("kernel '" + kernel.name +
                                        "' of scenario '" + scenario.name +
                                        "' is nondeterministic across "
                                        "repeats");
              }
              checksum = result.checksum;
              return result;
            },
            [](const KernelResult& a, const KernelResult& b) {
              return a.seconds < b.seconds;
            }));
    total_seconds += best.result.seconds;
    total_ops += best.result.ops;
    folded_checksum = HashCombine(folded_checksum, best.result.checksum);
    record.SetMetric("phase_seconds/" + kernel.name, best.result.seconds);
    if (best.result.seconds > 0.0) {
      record.SetMetric(
          "edges_per_sec/" + kernel.name,
          static_cast<double>(best.result.ops) / best.result.seconds);
    }
  }
  record.SetMetric("seconds", total_seconds);
  record.SetMetric("num_edges", static_cast<double>(total_ops));
  // Truncated so the double holds it exactly. Gated by the default
  // two-sided band, which an exact value always passes — so any drift
  // is a behavioral change in a kernel, caught by --check before the
  // identity tests even run.
  record.SetMetric("checksum_low32",
                   static_cast<double>(folded_checksum & 0xffffffffULL));
  AttachHostMetrics(&record);
  return record;
}

}  // namespace benchkit
}  // namespace tpsl
