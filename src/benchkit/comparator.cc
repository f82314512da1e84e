#include "benchkit/comparator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "benchkit/micro_kernels.h"
#include "benchkit/obs_kernels.h"

namespace tpsl {
namespace benchkit {
namespace {

const char* StatusLabel(MetricStatus status) {
  switch (status) {
    case MetricStatus::kOk:
      return "ok";
    case MetricStatus::kImproved:
      return "IMPROVED";
    case MetricStatus::kRegressed:
      return "REGRESSED";
    case MetricStatus::kDrifted:
      return "DRIFTED";
    case MetricStatus::kMissing:
      return "MISSING";
    case MetricStatus::kNewMetric:
      return "new";
  }
  return "?";
}

std::string FormatCheck(const MetricCheck& check) {
  char buf[256];
  if (check.status == MetricStatus::kMissing) {
    std::snprintf(buf, sizeof(buf),
                  "    %-28s baseline %.6g, absent from current run MISSING",
                  check.metric.c_str(), check.baseline);
  } else if (check.status == MetricStatus::kNewMetric) {
    std::snprintf(buf, sizeof(buf),
                  "    %-28s current %.6g, no baseline (new metric)",
                  check.metric.c_str(), check.current);
  } else {
    std::snprintf(
        buf, sizeof(buf),
        "    %-28s baseline %.6g -> current %.6g (%+.1f%%, tol %s%.0f%%%s) %s",
        check.metric.c_str(), check.baseline, check.current,
        100.0 * check.rel_delta,
        !check.tolerance.upper_only        ? "±"
        : check.tolerance.higher_is_better ? "-"
                                           : "+",
        100.0 * check.tolerance.rel,
        check.tolerance.informational ? ", informational" : "",
        StatusLabel(check.status));
  }
  return buf;
}

void AppendConfigNote(const BenchRecord& baseline, const BenchRecord& current,
                      ScenarioComparison* out) {
  auto mismatch = [&out](const std::string& field, const std::string& base,
                         const std::string& cur) {
    out->notes.push_back("config drift: " + field + " baseline=" + base +
                         " current=" + cur +
                         " (re-emit the baseline after intentional changes)");
    out->passed = false;
  };
  if (baseline.partitioner != current.partitioner) {
    mismatch("partitioner", baseline.partitioner, current.partitioner);
  }
  if (baseline.dataset != current.dataset) {
    mismatch("dataset", baseline.dataset, current.dataset);
  }
  if (baseline.k != current.k) {
    mismatch("k", std::to_string(baseline.k), std::to_string(current.k));
  }
  if (baseline.scale_shift != current.scale_shift) {
    mismatch("scale_shift", std::to_string(baseline.scale_shift),
             std::to_string(current.scale_shift));
  }
  if (baseline.seed != current.seed) {
    mismatch("seed", std::to_string(baseline.seed),
             std::to_string(current.seed));
  }
  if (baseline.threads != current.threads) {
    mismatch("threads", std::to_string(baseline.threads),
             std::to_string(current.threads));
  }
}

}  // namespace

ToleranceSpec DefaultToleranceFor(const std::string& metric) {
  if (metric.starts_with("obs/")) {
    // Observability snapshots (counters, gauges, histogram
    // percentiles) attached to the record for humans and dashboards:
    // run-shape diagnostics, never acceptance criteria.
    return {.rel = 0.0, .abs_floor = 0.0, .upper_only = false,
            .informational = true};
  }
  if (metric == "edges_per_sec/span_off" ||
      metric == "edges_per_sec/counter_add" ||
      metric == "edges_per_sec/hist_record") {
    // The micro_obs overhead gates: disabled-span, sharded-counter and
    // histogram hot paths must stay at noise-level cost. Same generous
    // one-sided band as the hot-loop throughput gate — it exists to
    // catch an accidentally heavyweight instrumentation path (a lock,
    // an allocation), not CI hardware jitter.
    return {.rel = 0.75, .abs_floor = 0.0, .upper_only = true,
            .informational = false, .higher_is_better = true};
  }
  if (metric == "seconds") {
    // CI hardware differs from the machine that pinned the baseline;
    // gate only gross slowdowns (>3x beyond a 0.05 s noise floor).
    // The floor can be this low because the runner reports the
    // fastest of several repeats, not a single noisy sample.
    return {.rel = 2.0, .abs_floor = 0.05, .upper_only = true,
            .informational = false};
  }
  if (metric == "max_rss_bytes") {
    // The out-of-core honesty gate (disk-backed scenarios only):
    // resident memory must be bounded by algorithm state + fixed
    // buffers, never by |E|. Upper-only; the 16 MiB floor absorbs
    // allocator arenas and libc versions, which move RSS by megabytes.
    // A +25% band still admits that noise on the pinned out-of-core
    // tiers but not a lost memory saving: the s22 spill pin of 84.3 MB
    // admits 105.4 MB, short of the 132.6 MB that run peaked at before
    // clusters were compacted in place. Faster/leaner runs pass as
    // IMPROVED.
    return {.rel = 0.25, .abs_floor = 16.0 * 1024 * 1024, .upper_only = true,
            .informational = false};
  }
  if (metric == "edges_per_sec/partitioning") {
    // The hot-loop throughput gate: edges scored and assigned per
    // second of the partitioning phase. One-sided — only slowdowns
    // fail — and generous (a 75% throughput drop is a 4x slowdown),
    // because absolute throughput is hardware-dependent; the gate
    // exists to catch a de-optimized scoring loop, not CI jitter.
    return {.rel = 0.75, .abs_floor = 0.0, .upper_only = true,
            .informational = false, .higher_is_better = true};
  }
  if (metric.starts_with("edges_per_sec/")) {
    // Other phases (degree, clustering, load, scan) are usually too
    // short for a stable rate; informational detail only.
    return {.rel = 0.0, .abs_floor = 0.0, .upper_only = false,
            .informational = true, .higher_is_better = true};
  }
  if (metric.starts_with("phase_seconds/") ||
      metric.starts_with("pass_seconds/") || metric == "peak_rss_bytes") {
    return {.rel = 0.0, .abs_floor = 0.0, .upper_only = false,
            .informational = true};
  }
  if (metric == "bytes_read" || metric == "spill_bytes_written") {
    // The compressed-I/O gates (disk-backed scenarios): on-disk bytes
    // crossing the storage boundary per run, read in and spilled back
    // out. Deterministic given (encoder, dataset, and for the spill the
    // threads=1 placement), so the band is tight; one-sided, so a
    // better encoder passes as IMPROVED while a regression back toward
    // full-width I/O fails.
    return {.rel = 0.02, .abs_floor = 0.0, .upper_only = true,
            .informational = false};
  }
  if (metric == "compression_ratio" || metric == "hw_threads") {
    // Run-shape context: decoded/on-disk byte ratio, and the host's
    // effective hardware concurrency (machine-dependent by nature).
    return {.rel = 0.0, .abs_floor = 0.0, .upper_only = false,
            .informational = true};
  }
  if (metric == "edges_per_second" || metric == "mb_per_second") {
    // Throughput diagnostics from the ingest scenarios: pure
    // derivatives of wall time on CI hardware. The time gate is
    // "seconds"; these are reported for humans reading the records.
    return {.rel = 0.0, .abs_floor = 0.0, .upper_only = false,
            .informational = true};
  }
  if (metric == "lookup_qps" || metric == "mutation_qps") {
    // Serving throughput gates (serve scenarios): one-sided and
    // generous for the same reason as the hot-loop gate — absolute QPS
    // is hardware-dependent, and the gate exists to catch a reader hot
    // path that grew a lock or an allocation (a >4x collapse), not CI
    // jitter. Faster runs pass as IMPROVED.
    return {.rel = 0.75, .abs_floor = 0.0, .upper_only = true,
            .informational = false, .higher_is_better = true};
  }
  if (metric == "lookup_p50_seconds" || metric == "lookup_p99_seconds") {
    // Upper-only latency gates from the log2-bucketed obs histogram:
    // bucket resolution is a factor of two, so the band admits a
    // single-bucket quantization jump (+100%) and still fails a >=8x
    // percentile blowup. The absolute floor forgives sub-50us noise
    // (scheduler wakeups land entire lookups in the next bucket).
    return {.rel = 3.0, .abs_floor = 5e-5, .upper_only = true,
            .informational = false};
  }
  if (metric == "replication_factor" || metric == "measured_alpha") {
    // Deterministic given (code, seed); 2% absorbs cross-platform
    // floating-point ordering differences, nothing more.
    return {.rel = 0.02, .abs_floor = 0.0, .upper_only = false,
            .informational = false};
  }
  if (metric == "state_bytes") {
    // Deterministic up to stdlib container growth policies.
    return {.rel = 0.25, .abs_floor = 0.0, .upper_only = false,
            .informational = false};
  }
  return {.rel = 0.05, .abs_floor = 0.0, .upper_only = false,
          .informational = false};
}

ToleranceSpec DefaultToleranceFor(const std::string& metric,
                                  uint32_t threads) {
  ToleranceSpec spec = DefaultToleranceFor(metric);
  if (threads <= 1) {
    return spec;
  }
  // Multi-threaded wall time and hot-loop throughput are gated with
  // the same one-sided bands as threads=1 now that the whole pipeline
  // (clustering, scoring, sinks) rides the engine: the engine clamps
  // workers to the pool, so a run on any machine shape is at worst the
  // sequential algorithm, and the generous rel tolerance absorbs
  // core-count differences between the pinning machine and CI. What
  // the gate catches is a parallel path that serializes again (a
  // reintroduced sink mutex, a sequentialized pass) — a multiple, not
  // a percentage.
  if (metric == "replication_factor" || metric == "measured_alpha") {
    // Parallel workers score against stale shared state, so quality is
    // scheduling-dependent: same class, not same bits. 10% catches a
    // broken scoring path while absorbing interleaving noise.
    spec.rel = 0.10;
  }
  return spec;
}

std::vector<std::string> GatedMetricsForScenario(const Scenario& scenario) {
  // The metrics each scenario kind emits that are candidates for
  // gating; the thread-aware tolerance policy below is the single
  // source of truth for which of them the gate actually enforces.
  std::vector<std::string> candidates;
  switch (scenario.kind) {
    case ScenarioKind::kInMemory:
    case ScenarioKind::kDiskPartition:
      candidates = {"seconds",     "replication_factor",
                    "measured_alpha", "state_bytes",
                    "num_edges",   "edges_per_sec/partitioning"};
      if (scenario.kind == ScenarioKind::kDiskPartition) {
        candidates.push_back("max_rss_bytes");
        candidates.push_back("bytes_read");
        if (scenario.spill) {
          candidates.push_back("spill_bytes_written");
        }
      }
      break;
    case ScenarioKind::kIngestScan:
      candidates = {"seconds", "num_edges", "file_bytes"};
      break;
    case ScenarioKind::kMicroKernel:
    case ScenarioKind::kMicroObs: {
      candidates = {"seconds", "num_edges", "checksum_low32"};
      const std::vector<std::string>& kernels =
          scenario.kind == ScenarioKind::kMicroKernel ? MicroKernelNames()
                                                      : ObsKernelNames();
      for (const std::string& kernel : kernels) {
        candidates.push_back("edges_per_sec/" + kernel);
      }
      break;
    }
    case ScenarioKind::kServe:
      // Placement-side metrics are deterministic (single writer,
      // deterministic re-bootstrap adoption) and sit under the default
      // two-sided band; QPS and latency carry the serve-specific
      // one-sided tolerances above.
      candidates = {"seconds",          "num_edges",
                    "live_edges",       "replication_factor",
                    "measured_alpha",   "state_bytes",
                    "lookup_qps",       "mutation_qps",
                    "lookup_p50_seconds", "lookup_p99_seconds",
                    "epochs_published", "rebootstraps",
                    "lookups",          "mutations"};
      break;
  }
  std::vector<std::string> gated;
  for (const std::string& metric : candidates) {
    if (!DefaultToleranceFor(metric, scenario.threads).informational) {
      gated.push_back(metric);
    }
  }
  return gated;
}

ScenarioComparison CompareRecord(const BenchRecord& baseline,
                                 const BenchRecord& current) {
  ScenarioComparison comparison;
  comparison.scenario = current.scenario;
  AppendConfigNote(baseline, current, &comparison);

  for (const auto& [name, base_value] : baseline.metrics) {
    MetricCheck check;
    check.metric = name;
    check.baseline = base_value;
    check.tolerance = DefaultToleranceFor(name, current.threads);

    const double* cur = current.FindMetric(name);
    if (cur == nullptr) {
      check.status = MetricStatus::kMissing;
      check.failed = !check.tolerance.informational;
    } else {
      check.current = *cur;
      const double abs_delta = std::fabs(check.current - check.baseline);
      check.rel_delta =
          abs_delta == 0.0
              ? 0.0
              : (check.current - check.baseline) /
                    std::max(std::fabs(check.baseline), 1e-12);
      const bool beyond =
          abs_delta > check.tolerance.abs_floor &&
          std::fabs(check.rel_delta) > check.tolerance.rel;
      // Which direction is a regression depends on the metric's
      // polarity: cost metrics fail upward, throughput metrics fail
      // downward.
      const bool bad_direction = check.tolerance.higher_is_better
                                     ? check.rel_delta < 0.0
                                     : check.rel_delta > 0.0;
      if (!beyond || check.tolerance.informational) {
        check.status = MetricStatus::kOk;
      } else if (bad_direction) {
        check.status = MetricStatus::kRegressed;
        check.failed = true;
      } else if (check.tolerance.upper_only) {
        check.status = MetricStatus::kImproved;
      } else {
        check.status = MetricStatus::kDrifted;
        check.failed = true;
      }
    }
    comparison.passed = comparison.passed && !check.failed;
    comparison.checks.push_back(std::move(check));
  }

  for (const auto& [name, cur_value] : current.metrics) {
    if (baseline.FindMetric(name) == nullptr) {
      MetricCheck check;
      check.metric = name;
      check.current = cur_value;
      check.tolerance = DefaultToleranceFor(name, current.threads);
      check.status = MetricStatus::kNewMetric;
      comparison.checks.push_back(std::move(check));
    }
  }
  return comparison;
}

ComparisonReport CompareRecords(const std::vector<BenchRecord>& baselines,
                                const std::vector<BenchRecord>& current) {
  ComparisonReport report;
  auto find_baseline = [&baselines](const std::string& scenario) {
    for (const BenchRecord& record : baselines) {
      if (record.scenario == scenario) {
        return &record;
      }
    }
    return static_cast<const BenchRecord*>(nullptr);
  };

  for (const BenchRecord& record : current) {
    const BenchRecord* baseline = find_baseline(record.scenario);
    if (baseline == nullptr) {
      ScenarioComparison comparison;
      comparison.scenario = record.scenario;
      comparison.is_new = true;
      comparison.notes.push_back(
          "no baseline record; pin one with --emit --out <baseline dir>");
      report.scenarios.push_back(std::move(comparison));
      continue;
    }
    report.scenarios.push_back(CompareRecord(*baseline, record));
  }

  for (const BenchRecord& record : baselines) {
    bool seen = false;
    for (const BenchRecord& cur : current) {
      seen = seen || cur.scenario == record.scenario;
    }
    if (!seen) {
      report.stale_baselines.push_back(record.scenario);
    }
  }

  for (const ScenarioComparison& comparison : report.scenarios) {
    report.passed = report.passed && comparison.passed;
  }
  return report;
}

std::string ComparisonReport::ToString() const {
  size_t ok = 0, failed = 0, fresh = 0;
  for (const ScenarioComparison& comparison : scenarios) {
    if (comparison.is_new) {
      ++fresh;
    } else if (comparison.passed) {
      ++ok;
    } else {
      ++failed;
    }
  }
  std::string out = "benchkit check: " + std::to_string(scenarios.size()) +
                    " scenarios — " + std::to_string(ok) + " ok, " +
                    std::to_string(failed) + " failed, " +
                    std::to_string(fresh) + " new, " +
                    std::to_string(stale_baselines.size()) + " stale\n";
  for (const ScenarioComparison& comparison : scenarios) {
    const char* tag = comparison.is_new ? "NEW "
                      : comparison.passed ? " ok "
                                          : "FAIL";
    out += "  [" + std::string(tag) + "] " + comparison.scenario + "\n";
    for (const std::string& note : comparison.notes) {
      out += "    note: " + note + "\n";
    }
    for (const MetricCheck& check : comparison.checks) {
      // Keep passing informational rows out of the report; they are in
      // the emitted JSON for anyone who wants the detail.
      if (check.status == MetricStatus::kOk && comparison.passed) {
        continue;
      }
      out += FormatCheck(check) + "\n";
    }
  }
  for (const std::string& stale : stale_baselines) {
    out += "  [stale] baseline " + stale +
           " matched no scenario in this run (delete or re-run without "
           "--scenario filters)\n";
  }
  out += passed ? "PASS\n" : "FAIL\n";
  return out;
}

}  // namespace benchkit
}  // namespace tpsl
