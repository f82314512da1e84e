// benchkit driver: turns the pinned scenario registry into emitted
// JSON perf records and a CI-gradeable baseline diff.
//
//   bench_runner --list                      enumerate pinned scenarios
//                                            (kind/threads + gated metrics)
//   bench_runner --emit [--out=DIR]          run + write BENCH_<name>.json
//   bench_runner --check=DIR [--out=DIR]     run, diff against baselines in
//                                            DIR, exit 1 on regression
//   bench_runner --smoke                     tiny run of every scenario;
//                                            verifies metrics, no baselines
//   bench_runner --run=NAME                  run one scenario once and dump
//                                            every metric (incl. obs/) to
//                                            stdout; pairs with --trace
//
//   --scenario=NAME   restrict --emit/--check/--smoke to one scenario
//                     (repeatable)
//   --trace=FILE      record spans while running (any mode) and export
//                     them as Chrome trace-event JSON to FILE on exit —
//                     load in Perfetto (ui.perfetto.dev) or
//                     chrome://tracing
//   --verbose         emit debug-severity log lines too
//   --catalog=FILE    ingest catalog for disk-backed scenarios
//                     (default bench/catalog.json)
//   --datasets=DIR    dataset cache dir for disk-backed scenarios,
//                     generated on demand (default bench/.datasets)
//   --spill-dir=DIR   where spill-to-disk scenarios write their
//                     per-partition files (default bench/.spill;
//                     deleted after measurement)
//   --threads=N       override every scenario's pinned worker count
//                     (records carry the override, so --check flags it
//                     as config drift — exploration only)
//   --repeat=N        run each measured scenario N times and report
//                     the fastest repeat (default: the runner's pinned
//                     repeat count; micro-kernel CI gates raise this to
//                     squeeze out scheduler noise)
//   --time-budget=S   fail if any single scenario takes more than S
//                     wall seconds (CI's runtime guard for the larger
//                     scenario tier)
//
// --smoke skips larger-tier scenarios (scenario.large) unless they are
// named explicitly with --scenario; the CI perf gate runs them.
//
// To (re)pin baselines after an intentional perf or quality change:
//   bench_runner --emit --out=bench/baselines && git diff bench/baselines
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "benchkit/comparator.h"
#include "benchkit/measure.h"
#include "benchkit/micro_kernels.h"
#include "benchkit/obs_kernels.h"
#include "benchkit/record.h"
#include "benchkit/runner.h"
#include "benchkit/scenario.h"
#include "ingest/scenario_runner.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/memory.h"
#include "util/status.h"
#include "util/timer.h"

namespace {

using tpsl::benchkit::BenchRecord;
using tpsl::benchkit::ComparisonReport;
using tpsl::benchkit::PinnedScenarios;
using tpsl::benchkit::RecordFileName;
using tpsl::benchkit::RunScenarioOptions;
using tpsl::benchkit::Scenario;
using tpsl::benchkit::ScenarioKind;
using tpsl::benchkit::ScenarioKindLabel;
using tpsl::ingest::RunScenarioWithIngest;
using tpsl::ingest::ScenarioRunContext;

struct Options {
  enum class Mode { kNone, kList, kEmit, kCheck, kSmoke, kRun } mode =
      Mode::kNone;
  std::string baseline_dir;              // --check
  std::string out_dir;                   // --emit/--check/--run output
  std::string run_scenario;              // --run
  std::vector<std::string> scenarios;    // --scenario filters
  std::string catalog_path = "bench/catalog.json";
  std::string dataset_dir = "bench/.datasets";
  std::string spill_dir = "bench/.spill";
  std::string trace_path;                // --trace (empty = tracing off)
  uint32_t threads = 0;                  // --threads override (0 = pinned)
  uint32_t repeats = 0;                  // --repeat override (0 = default)
  double time_budget_seconds = 0.0;      // --time-budget (0 = no guard)
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--list | --emit | --check=BASELINE_DIR | --smoke |"
               " --run=NAME)"
               " [--out=DIR] [--scenario=NAME ...] [--catalog=FILE]"
               " [--datasets=DIR] [--spill-dir=DIR] [--threads=N]"
               " [--repeat=N] [--time-budget=SECONDS] [--trace=FILE]"
               " [--verbose]\n",
               argv0);
  return 2;
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') {
    return false;
  }
  *value = arg + len + 1;
  return true;
}

/// Shared unknown-scenario diagnostic for --scenario and --run: the
/// error plus the registry's closest names, so a typo'd CI config tells
/// the reader what it was probably meant to say.
void ReportUnknownScenario(const std::string& name) {
  std::string hint;
  for (const std::string& suggestion :
       tpsl::benchkit::SuggestScenarioNames(name)) {
    hint += hint.empty() ? " — did you mean " : ", ";
    hint += "'" + suggestion + "'";
  }
  if (!hint.empty()) {
    hint += "?";
  }
  TPSL_LOG(Error) << "unknown scenario '" << name << "'" << hint
                  << " (see --list)";
}

/// The scenarios selected by --scenario filters (all when none given).
/// Returns false on an unknown name.
bool SelectScenarios(const Options& options, std::vector<Scenario>* selected) {
  if (options.scenarios.empty()) {
    *selected = PinnedScenarios();
    return true;
  }
  for (const std::string& name : options.scenarios) {
    const Scenario* scenario = tpsl::benchkit::FindScenario(name);
    if (scenario == nullptr) {
      ReportUnknownScenario(name);
      return false;
    }
    selected->push_back(*scenario);
  }
  return true;
}

int ListScenarios() {
  std::printf("%-26s %-7s %-12s %-8s %5s %6s %6s %4s %5s  %s\n", "name",
              "kind", "partitioner", "dataset", "k", "shift", "seed", "thr",
              "tier", "description");
  for (const Scenario& s : PinnedScenarios()) {
    std::printf("%-26s %-7s %-12s %-8s %5u %6d %6llu %4u %5s  %s\n",
                s.name.c_str(), ScenarioKindLabel(s.kind),
                s.partitioner.c_str(), s.dataset.c_str(), s.k, s.scale_shift,
                static_cast<unsigned long long>(s.seed), s.threads,
                s.large ? (s.spill ? "lg+sp" : "large")
                        : (s.spill ? "spill" : "std"),
                s.description.c_str());
    // What --check enforces for this scenario, straight from the
    // tolerance policy — the registry self-documents its gate.
    std::string gated;
    for (const std::string& metric :
         tpsl::benchkit::GatedMetricsForScenario(s)) {
      if (!gated.empty()) {
        gated += ", ";
      }
      gated += metric;
    }
    std::printf("%-26s   gated: %s\n", "",
                gated.empty() ? "(none)" : gated.c_str());
  }
  return 0;
}

/// Runs the selection, printing one progress line per scenario.
/// Returns false only when a scenario fails to run. The time budget
/// guards each scenario's full wall time (all repeats + harness work,
/// not just the reported fastest repeat) — the larger scenario tier
/// only stays in CI while it stays affordable — but a violation is
/// reported through `within_budget` instead of aborting, so the
/// records still get written and compared (the emitted JSON is what a
/// CI debugging session needs most).
bool RunAll(const std::vector<Scenario>& scenarios, const Options& options,
            const RunScenarioOptions& run_options,
            std::vector<BenchRecord>* records, bool* within_budget) {
  ScenarioRunContext context;
  context.catalog_path = options.catalog_path;
  context.dataset_dir = options.dataset_dir;
  context.spill_dir = options.spill_dir;
  context.options = run_options;
  context.options.threads_override = options.threads;
  if (options.repeats > 0) {
    context.options.repeats = static_cast<int>(options.repeats);
  }
  for (const Scenario& scenario : scenarios) {
    TPSL_LOG(Debug) << "running " << scenario.name;
    tpsl::WallTimer timer;
    auto record = RunScenarioWithIngest(scenario, context);
    const double wall = timer.ElapsedSeconds();
    if (!record.ok()) {
      TPSL_LOG(Error) << scenario.name << " failed: "
                      << record.status().ToString();
      return false;
    }
    const double* seconds = record->FindMetric("seconds");
    TPSL_LOG(Info) << "ran " << scenario.name << " in "
                   << (seconds != nullptr ? *seconds : 0.0) << "s ("
                   << wall << "s wall)";
    if (options.time_budget_seconds > 0.0 &&
        wall > options.time_budget_seconds) {
      TPSL_LOG(Error) << "time budget exceeded: " << scenario.name
                      << " took " << wall << "s wall (--time-budget="
                      << options.time_budget_seconds
                      << ") — shrink the scenario or raise the budget";
      *within_budget = false;
    }
    records->push_back(std::move(record).value());
  }
  return true;
}

bool WriteRecords(const std::vector<BenchRecord>& records,
                  const std::string& out_dir) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    TPSL_LOG(Error) << "cannot create " << out_dir << ": " << ec.message();
    return false;
  }
  for (const BenchRecord& record : records) {
    const std::string path =
        (std::filesystem::path(out_dir) / RecordFileName(record.scenario))
            .string();
    const tpsl::Status status = WriteRecordFile(record, path);
    if (!status.ok()) {
      TPSL_LOG(Error) << status.ToString();
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return true;
}

int Emit(const Options& options) {
  std::vector<Scenario> scenarios;
  if (!SelectScenarios(options, &scenarios)) {
    return 2;
  }
  std::vector<BenchRecord> records;
  bool within_budget = true;
  if (!RunAll(scenarios, options, {}, &records, &within_budget)) {
    return 1;
  }
  if (!WriteRecords(records,
                    options.out_dir.empty() ? "." : options.out_dir)) {
    return 1;
  }
  return within_budget ? 0 : 1;
}

int Check(const Options& options) {
  std::vector<Scenario> scenarios;
  if (!SelectScenarios(options, &scenarios)) {
    return 2;
  }
  auto baselines = tpsl::benchkit::ReadRecordDir(options.baseline_dir);
  if (!baselines.ok()) {
    TPSL_LOG(Error) << baselines.status().ToString();
    return 1;
  }
  std::vector<BenchRecord> records;
  bool within_budget = true;
  if (!RunAll(scenarios, options, {}, &records, &within_budget)) {
    return 1;
  }
  // Write and diff what we measured even when the budget tripped: the
  // uploaded records are the evidence of where the time went.
  if (!options.out_dir.empty() && !WriteRecords(records, options.out_dir)) {
    return 1;
  }
  const ComparisonReport report =
      tpsl::benchkit::CompareRecords(*baselines, records);
  std::printf("%s", report.ToString().c_str());
  if (!within_budget) {
    std::printf("FAIL (time budget exceeded, see stderr)\n");
  }
  return report.passed && within_budget ? 0 : 1;
}

/// The metrics a --smoke record must carry, finite: the kind's core
/// contract plus every metric --check gates for the scenario, so a
/// runner that stops emitting a gated metric fails the tier-1 smoke
/// run, not only the perf job. `rss_scoped` is whether ResetPeakRss()
/// works here; without it max_rss_bytes is legitimately absent.
std::vector<std::string> SmokeRequiredMetrics(const Scenario& scenario,
                                              bool rss_scoped) {
  std::vector<std::string> required;
  switch (scenario.kind) {
    case ScenarioKind::kInMemory:
    case ScenarioKind::kDiskPartition:
      required = {"seconds",     "replication_factor", "measured_alpha",
                  "state_bytes", "num_edges",          "peak_rss_bytes"};
      break;
    case ScenarioKind::kIngestScan:
      required = {"seconds", "num_edges", "file_bytes", "edges_per_second",
                  "peak_rss_bytes"};
      break;
    case ScenarioKind::kServe:
      required = {"seconds",        "num_edges",
                  "live_edges",     "replication_factor",
                  "measured_alpha", "state_bytes",
                  "lookup_qps",     "mutation_qps",
                  "lookup_p50_seconds", "lookup_p99_seconds",
                  "peak_rss_bytes"};
      break;
    case ScenarioKind::kMicroKernel:
    case ScenarioKind::kMicroObs:
      required = {"seconds", "num_edges", "checksum_low32"};
      for (const std::string& kernel :
           scenario.kind == ScenarioKind::kMicroKernel
               ? tpsl::benchkit::MicroKernelNames()
               : tpsl::benchkit::ObsKernelNames()) {
        required.push_back("phase_seconds/" + kernel);
        required.push_back("edges_per_sec/" + kernel);
      }
      break;
  }
  for (const std::string& metric :
       tpsl::benchkit::GatedMetricsForScenario(scenario)) {
    if ((rss_scoped || metric != "max_rss_bytes") &&
        std::find(required.begin(), required.end(), metric) ==
            required.end()) {
      required.push_back(metric);
    }
  }
  return required;
}

int Smoke(const Options& options) {
  std::vector<Scenario> scenarios;
  if (!SelectScenarios(options, &scenarios)) {
    return 2;
  }
  // Larger-tier scenarios would make tier-1 ctest generate and stream
  // multi-hundred-MB datasets; the CI perf gate covers them. An
  // explicit --scenario selection still runs them.
  if (options.scenarios.empty()) {
    size_t kept = 0, skipped = 0;
    for (const Scenario& scenario : scenarios) {
      if (scenario.large) {
        ++skipped;
      } else {
        scenarios[kept++] = scenario;
      }
    }
    scenarios.resize(kept);
    if (skipped > 0) {
      TPSL_LOG(Info) << "smoke: skipping " << skipped
                     << " large-tier scenario(s); run them via --scenario or "
                        "the perf gate";
    }
  }
  // Shrink far below the pinned scale: the smoke run exercises the
  // subsystem end to end in tier-1 ctest, it does not measure.
  RunScenarioOptions run_options;
  run_options.extra_scale_shift = 3;
  run_options.repeats = 1;  // smoke exercises the path, it doesn't time
  std::vector<BenchRecord> records;
  bool within_budget = true;
  if (!RunAll(scenarios, options, run_options, &records, &within_budget)) {
    return 1;
  }
  // Where the RSS high-water mark cannot be scoped, disk records omit
  // the gated max_rss_bytes by design (see RunScenarioWithIngest).
  const bool rss_scoped = tpsl::ResetPeakRss();
  bool ok = true;
  for (size_t i = 0; i < records.size(); ++i) {
    for (const std::string& name :
         SmokeRequiredMetrics(scenarios[i], rss_scoped)) {
      const double* value = records[i].FindMetric(name);
      if (value == nullptr || !std::isfinite(*value)) {
        TPSL_LOG(Error) << "smoke: " << records[i].scenario << " metric '"
                        << name << "' missing or non-finite";
        ok = false;
      }
    }
  }
  std::printf("smoke: %zu scenarios ran, metrics %s\n", records.size(),
              ok ? "ok" : "BROKEN");
  return ok && within_budget ? 0 : 1;
}

/// --run=NAME: one full-scale pass of a single scenario with every
/// metric (including the informational obs/ snapshot) dumped to
/// stdout, and its record written to --out when given. The sidecar
/// mode for --trace: one scenario, one trace.
int RunOne(const Options& options) {
  const Scenario* scenario =
      tpsl::benchkit::FindScenario(options.run_scenario);
  if (scenario == nullptr) {
    ReportUnknownScenario(options.run_scenario);
    return 2;
  }
  ScenarioRunContext context;
  context.catalog_path = options.catalog_path;
  context.dataset_dir = options.dataset_dir;
  context.spill_dir = options.spill_dir;
  // One observable pass by default (one scenario, one trace); --repeat
  // turns the dump into a fastest-of-N measurement.
  context.options.repeats =
      options.repeats > 0 ? static_cast<int>(options.repeats) : 1;
  context.options.threads_override = options.threads;
  tpsl::WallTimer timer;
  auto record = RunScenarioWithIngest(*scenario, context);
  if (!record.ok()) {
    TPSL_LOG(Error) << scenario->name << " failed: "
                    << record.status().ToString();
    return 1;
  }
  std::printf("scenario %s  kind=%s partitioner=%s dataset=%s k=%u "
              "shift=%d seed=%llu threads=%u  (%.3fs wall)\n",
              record->scenario.c_str(), ScenarioKindLabel(scenario->kind),
              record->partitioner.c_str(), record->dataset.c_str(),
              record->k, record->scale_shift,
              static_cast<unsigned long long>(record->seed),
              record->threads, timer.ElapsedSeconds());
  for (const auto& [name, value] : record->metrics) {
    std::printf("  %-44s %.17g\n", name.c_str(), value);
  }
  if (!options.out_dir.empty() && !WriteRecords({*record}, options.out_dir)) {
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--list") == 0) {
      options.mode = Options::Mode::kList;
    } else if (std::strcmp(arg, "--emit") == 0) {
      options.mode = Options::Mode::kEmit;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      options.mode = Options::Mode::kSmoke;
    } else if (ParseFlag(arg, "--check", &value)) {
      options.mode = Options::Mode::kCheck;
      options.baseline_dir = value;
    } else if (std::strcmp(arg, "--check") == 0 && i + 1 < argc) {
      options.mode = Options::Mode::kCheck;
      options.baseline_dir = argv[++i];
    } else if (ParseFlag(arg, "--run", &value)) {
      options.mode = Options::Mode::kRun;
      options.run_scenario = value;
    } else if (std::strcmp(arg, "--run") == 0 && i + 1 < argc) {
      options.mode = Options::Mode::kRun;
      options.run_scenario = argv[++i];
    } else if (ParseFlag(arg, "--trace", &value)) {
      options.trace_path = value;
    } else if (std::strcmp(arg, "--trace") == 0 && i + 1 < argc) {
      options.trace_path = argv[++i];
    } else if (std::strcmp(arg, "--verbose") == 0) {
      tpsl::SetMinLogSeverity(tpsl::LogSeverity::kDebug);
    } else if (ParseFlag(arg, "--out", &value)) {
      options.out_dir = value;
    } else if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) {
      options.out_dir = argv[++i];
    } else if (ParseFlag(arg, "--scenario", &value)) {
      options.scenarios.push_back(value);
    } else if (std::strcmp(arg, "--scenario") == 0 && i + 1 < argc) {
      options.scenarios.push_back(argv[++i]);
    } else if (ParseFlag(arg, "--catalog", &value)) {
      options.catalog_path = value;
    } else if (ParseFlag(arg, "--datasets", &value)) {
      options.dataset_dir = value;
    } else if (ParseFlag(arg, "--spill-dir", &value)) {
      options.spill_dir = value;
    } else if (ParseFlag(arg, "--threads", &value)) {
      if (!tpsl::benchkit::ParseThreadCount(value.c_str(),
                                            &options.threads)) {
        TPSL_LOG(Error) << "bad --threads '" << value << "' (want 1..1024)";
        return Usage(argv[0]);
      }
    } else if (ParseFlag(arg, "--repeat", &value)) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed == 0 ||
          parsed > 1000) {
        TPSL_LOG(Error) << "bad --repeat '" << value << "' (want 1..1000)";
        return Usage(argv[0]);
      }
      options.repeats = static_cast<uint32_t>(parsed);
    } else if (ParseFlag(arg, "--time-budget", &value)) {
      char* end = nullptr;
      const double parsed = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(parsed > 0.0)) {
        TPSL_LOG(Error) << "bad --time-budget '" << value
                        << "' (want seconds > 0)";
        return Usage(argv[0]);
      }
      options.time_budget_seconds = parsed;
    } else {
      TPSL_LOG(Error) << "unknown argument '" << arg << "'";
      return Usage(argv[0]);
    }
  }
  if (!options.trace_path.empty()) {
    tpsl::obs::SetTracingEnabled(true);
  }
  int rc = 0;
  switch (options.mode) {
    case Options::Mode::kList:
      rc = ListScenarios();
      break;
    case Options::Mode::kEmit:
      rc = Emit(options);
      break;
    case Options::Mode::kCheck:
      rc = Check(options);
      break;
    case Options::Mode::kSmoke:
      rc = Smoke(options);
      break;
    case Options::Mode::kRun:
      rc = RunOne(options);
      break;
    case Options::Mode::kNone:
      return Usage(argv[0]);
  }
  if (!options.trace_path.empty()) {
    tpsl::obs::SetTracingEnabled(false);
    const tpsl::Status status =
        tpsl::obs::WriteChromeTrace(options.trace_path);
    if (!status.ok()) {
      TPSL_LOG(Error) << "trace export failed: " << status.ToString();
      return rc != 0 ? rc : 1;
    }
    const tpsl::obs::TraceStats stats = tpsl::obs::GetTraceStats();
    TPSL_LOG(Info) << "wrote " << options.trace_path << " ("
                   << stats.emitted << " events from " << stats.threads
                   << " threads, " << stats.dropped
                   << " dropped by ring wrap) — open in ui.perfetto.dev";
  }
  return rc;
}
