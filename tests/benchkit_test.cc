#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "benchkit/comparator.h"
#include "benchkit/json.h"
#include "benchkit/measure.h"
#include "benchkit/record.h"
#include "benchkit/runner.h"
#include "benchkit/scenario.h"
#include "ingest/scenario_runner.h"

namespace tpsl {
namespace benchkit {
namespace {

// ---------------------------------------------------------------------------
// JSON writer/reader
// ---------------------------------------------------------------------------

TEST(JsonTest, WriteParseRoundTrip) {
  JsonValue object = JsonValue::Object();
  object.Set("name", JsonValue::String("2psl_ok_k32"));
  object.Set("k", JsonValue::Number(32));
  object.Set("fraction", JsonValue::Number(0.125));
  object.Set("flag", JsonValue::Bool(true));
  object.Set("nothing", JsonValue::Null());
  JsonValue array = JsonValue::Array();
  array.Append(JsonValue::Number(1));
  array.Append(JsonValue::String("quote\" backslash\\ newline\n"));
  array.Append(JsonValue::Object());
  object.Set("items", std::move(array));

  for (const int indent : {0, 2, 4}) {
    auto parsed = ParseJson(object.Write(indent));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(*parsed, object) << "indent=" << indent;
  }
}

TEST(JsonTest, ObjectsPreserveInsertionOrderAndSetReplaces) {
  JsonValue object = JsonValue::Object();
  object.Set("z", JsonValue::Number(1));
  object.Set("a", JsonValue::Number(2));
  object.Set("z", JsonValue::Number(3));
  ASSERT_EQ(object.members().size(), 2u);
  EXPECT_EQ(object.members()[0].first, "z");
  EXPECT_EQ(object.members()[0].second.number_value(), 3);
  EXPECT_EQ(object.members()[1].first, "a");
}

TEST(JsonTest, ParsesEscapesAndUnicode) {
  auto parsed = ParseJson(R"({"s": "tab\thex\u0041 pair\ud83d\ude00"})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const JsonValue* s = parsed->Find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->string_value(), "tab\thexA pair\xF0\x9F\x98\x80");
}

TEST(JsonTest, IntegralNumbersWriteWithoutFraction) {
  JsonValue object = JsonValue::Object();
  object.Set("state_bytes", JsonValue::Number(1234567890.0));
  EXPECT_EQ(object.Write(0), R"({"state_bytes":1234567890})");
}

TEST(JsonTest, RejectsMalformedInput) {
  const char* bad[] = {
      "",        "{",        "[1,",      "{\"a\" 1}",  "{\"a\":}",
      "nul",     "1 2",      "{} trailing",
      "\"unterminated",      "{\"a\":\"\\q\"}",  "+5",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(ParseJson(text).ok()) << "accepted: " << text;
  }
}

TEST(JsonTest, RejectsDeepNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
}

// ---------------------------------------------------------------------------
// BenchRecord round trip
// ---------------------------------------------------------------------------

BenchRecord MakeRecord() {
  BenchRecord record;
  record.scenario = "2psl_ok_k32";
  record.partitioner = "2PS-L";
  record.dataset = "OK";
  record.k = 32;
  record.scale_shift = 2;
  record.seed = 42;
  record.SetMetric("seconds", 0.125);
  record.SetMetric("replication_factor", 2.375);
  record.SetMetric("measured_alpha", 1.05);
  record.SetMetric("state_bytes", 1 << 20);
  record.SetMetric("num_edges", 60000);
  record.SetMetric("peak_rss_bytes", 12345678);
  record.SetMetric("phase_seconds/clustering", 0.0625);
  return record;
}

TEST(RecordTest, JsonRoundTrip) {
  const BenchRecord record = MakeRecord();
  auto reparsed = ParseJson(record.ToJson().Write());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  auto back = BenchRecord::FromJson(*reparsed);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, record);
}

TEST(RecordTest, FileRoundTrip) {
  const BenchRecord record = MakeRecord();
  const std::string path =
      testing::TempDir() + "/" + RecordFileName(record.scenario);
  ASSERT_TRUE(WriteRecordFile(record, path).ok());
  auto back = ReadRecordFile(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, record);
}

TEST(RecordTest, FromJsonRejectsOutOfRangeIntegerFields) {
  // Hand-edited baselines can hold anything; the reader must reject
  // values whose narrowing cast would be UB instead of passing them on.
  struct Case {
    const char* field;
    double value;
  } cases[] = {{"k", -1}, {"k", 1e20},      {"k", 2.5},
               {"seed", -1}, {"scale_shift", 1e10}};
  for (const Case& c : cases) {
    JsonValue json = MakeRecord().ToJson();
    json.Set(c.field, JsonValue::Number(c.value));
    EXPECT_FALSE(BenchRecord::FromJson(json).ok())
        << c.field << " = " << c.value;
  }
}

TEST(RecordTest, FromJsonRejectsMissingFields) {
  JsonValue json = MakeRecord().ToJson();
  JsonValue no_metrics = json;
  no_metrics.Set("metrics", JsonValue::Null());
  EXPECT_FALSE(BenchRecord::FromJson(no_metrics).ok());
  JsonValue bad_version = json;
  bad_version.Set("benchkit_version", JsonValue::Number(99));
  EXPECT_FALSE(BenchRecord::FromJson(bad_version).ok());
  EXPECT_FALSE(BenchRecord::FromJson(JsonValue::Array()).ok());
}

TEST(RecordTest, ReadRecordDirRequiresRecords) {
  EXPECT_FALSE(ReadRecordDir(testing::TempDir() + "/does_not_exist").ok());
}

TEST(RecordTest, ThreadsDimensionRoundTripsAndDefaultsToOne) {
  BenchRecord record = MakeRecord();
  record.threads = 4;
  auto back = BenchRecord::FromJson(record.ToJson());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->threads, 4u);

  // Pre-thread-aware baselines have no "threads" key; they were
  // single-threaded runs and must parse as threads=1, not fail.
  JsonValue legacy = JsonValue::Object();
  const JsonValue with_threads = MakeRecord().ToJson();
  for (const auto& [key, value] : with_threads.members()) {
    if (key != "threads") {
      legacy.Set(key, value);
    }
  }
  auto parsed = BenchRecord::FromJson(legacy);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->threads, 1u);

  JsonValue bad = MakeRecord().ToJson();
  bad.Set("threads", JsonValue::Number(0));
  EXPECT_FALSE(BenchRecord::FromJson(bad).ok());
}

// ---------------------------------------------------------------------------
// Comparator tolerance edges
// ---------------------------------------------------------------------------

TEST(ComparatorTest, ExactMatchPasses) {
  const BenchRecord record = MakeRecord();
  const ScenarioComparison comparison = CompareRecord(record, record);
  EXPECT_TRUE(comparison.passed);
  for (const MetricCheck& check : comparison.checks) {
    EXPECT_EQ(check.status, MetricStatus::kOk) << check.metric;
  }
}

TEST(ComparatorTest, WithinTolerancePasses) {
  const BenchRecord baseline = MakeRecord();
  BenchRecord current = baseline;
  current.SetMetric("seconds", 0.125 * 2.5);              // < 3x, tol +200%
  current.SetMetric("replication_factor", 2.375 * 1.01);  // < 2%
  current.SetMetric("state_bytes", (1 << 20) * 1.2);      // < 25%
  EXPECT_TRUE(CompareRecord(baseline, current).passed);
}

TEST(ComparatorTest, TimeRegressionFails) {
  const BenchRecord baseline = MakeRecord();
  BenchRecord current = baseline;
  current.SetMetric("seconds", 1.5);  // 12x the 0.125 s baseline
  const ScenarioComparison comparison = CompareRecord(baseline, current);
  EXPECT_FALSE(comparison.passed);
  for (const MetricCheck& check : comparison.checks) {
    if (check.metric == "seconds") {
      EXPECT_EQ(check.status, MetricStatus::kRegressed);
      EXPECT_TRUE(check.failed);
    }
  }
}

TEST(ComparatorTest, TimeImprovementPasses) {
  const BenchRecord baseline = MakeRecord();
  BenchRecord current = baseline;
  current.SetMetric("seconds", 0.001);
  const ScenarioComparison comparison = CompareRecord(baseline, current);
  EXPECT_TRUE(comparison.passed);
}

TEST(ComparatorTest, SmallAbsoluteTimeNoiseIsIgnored) {
  // 0.01 s -> 0.05 s is 5x relative but within the 0.05 s absolute
  // floor: cross-machine variance, not a regression. 0.07 s clears
  // both bars and fails.
  BenchRecord baseline = MakeRecord();
  baseline.SetMetric("seconds", 0.01);
  BenchRecord current = baseline;
  current.SetMetric("seconds", 0.05);
  EXPECT_TRUE(CompareRecord(baseline, current).passed);
  current.SetMetric("seconds", 0.07);
  EXPECT_FALSE(CompareRecord(baseline, current).passed);
}

TEST(ComparatorTest, QualityDriftFailsBothDirections) {
  const BenchRecord baseline = MakeRecord();
  BenchRecord worse = baseline;
  worse.SetMetric("replication_factor", 2.375 * 1.10);
  EXPECT_FALSE(CompareRecord(baseline, worse).passed);
  BenchRecord better = baseline;
  better.SetMetric("replication_factor", 2.375 * 0.90);
  const ScenarioComparison comparison = CompareRecord(baseline, better);
  EXPECT_FALSE(comparison.passed);  // unexpected change: re-pin the baseline
  for (const MetricCheck& check : comparison.checks) {
    if (check.metric == "replication_factor") {
      EXPECT_EQ(check.status, MetricStatus::kDrifted);
    }
  }
}

TEST(ComparatorTest, MissingMetricFails) {
  const BenchRecord baseline = MakeRecord();
  BenchRecord current = baseline;
  current.metrics.erase(current.metrics.begin());  // drop "seconds"
  const ScenarioComparison comparison = CompareRecord(baseline, current);
  EXPECT_FALSE(comparison.passed);
  EXPECT_EQ(comparison.checks.front().status, MetricStatus::kMissing);
}

TEST(ComparatorTest, ExtraMetricIsNotedNotFailed) {
  const BenchRecord baseline = MakeRecord();
  BenchRecord current = baseline;
  current.SetMetric("brand_new_metric", 1.0);
  const ScenarioComparison comparison = CompareRecord(baseline, current);
  EXPECT_TRUE(comparison.passed);
  bool saw_new = false;
  for (const MetricCheck& check : comparison.checks) {
    saw_new = saw_new || check.status == MetricStatus::kNewMetric;
  }
  EXPECT_TRUE(saw_new);
}

TEST(ComparatorTest, InformationalMetricsNeverFail) {
  const BenchRecord baseline = MakeRecord();
  BenchRecord current = baseline;
  current.SetMetric("peak_rss_bytes", 12345678.0 * 100);
  current.SetMetric("phase_seconds/clustering", 50.0);
  EXPECT_TRUE(CompareRecord(baseline, current).passed);
}

TEST(ComparatorTest, ConfigDriftFails) {
  const BenchRecord baseline = MakeRecord();
  BenchRecord current = baseline;
  current.k = 64;
  const ScenarioComparison comparison = CompareRecord(baseline, current);
  EXPECT_FALSE(comparison.passed);
  ASSERT_FALSE(comparison.notes.empty());
}

TEST(ComparatorTest, ThreadMismatchIsConfigDrift) {
  const BenchRecord baseline = MakeRecord();
  BenchRecord current = baseline;
  current.threads = 4;
  const ScenarioComparison comparison = CompareRecord(baseline, current);
  EXPECT_FALSE(comparison.passed);
  ASSERT_FALSE(comparison.notes.empty());
  EXPECT_NE(comparison.notes[0].find("threads"), std::string::npos);
}

TEST(ComparatorTest, MaxRssGatesOutOfCoreRegressions) {
  // max_rss_bytes is the out-of-core honesty gate: upper-only, wide
  // band + absolute floor for allocator noise, but an O(|E|)-sized
  // rematerialization must fail.
  const ToleranceSpec spec = DefaultToleranceFor("max_rss_bytes");
  EXPECT_FALSE(spec.informational);
  EXPECT_TRUE(spec.upper_only);

  BenchRecord baseline = MakeRecord();
  baseline.SetMetric("max_rss_bytes", 64.0 * 1024 * 1024);

  // +10 MB: under the absolute floor — allocator/platform noise.
  BenchRecord noisy = baseline;
  noisy.SetMetric("max_rss_bytes", 74.0 * 1024 * 1024);
  EXPECT_TRUE(CompareRecord(baseline, noisy).passed);

  // Leaner run: improvement, never a failure (upper-only).
  BenchRecord leaner = baseline;
  leaner.SetMetric("max_rss_bytes", 16.0 * 1024 * 1024);
  EXPECT_TRUE(CompareRecord(baseline, leaner).passed);

  // 4x resident memory: the edge set came back — regression.
  BenchRecord bloated = baseline;
  bloated.SetMetric("max_rss_bytes", 256.0 * 1024 * 1024);
  const ScenarioComparison comparison = CompareRecord(baseline, bloated);
  EXPECT_FALSE(comparison.passed);

  // The band is +25% above the floor: against the s22 spill pin a
  // 115 MB run passes, the 132.6 MB peak of the uncompacted clustering
  // fails.
  BenchRecord pinned = MakeRecord();
  pinned.SetMetric("max_rss_bytes", 94.7e6);
  BenchRecord within = pinned;
  within.SetMetric("max_rss_bytes", 115.0e6);
  EXPECT_TRUE(CompareRecord(pinned, within).passed);
  BenchRecord uncompacted = pinned;
  uncompacted.SetMetric("max_rss_bytes", 132.6e6);
  EXPECT_FALSE(CompareRecord(pinned, uncompacted).passed);
}

TEST(ComparatorTest, SpillBytesGatedLikeBytesRead) {
  // Compressed bytes spilled back to disk are deterministic at
  // threads=1 given the encoder and the dataset: the same tight
  // one-sided band as bytes_read.
  const ToleranceSpec read = DefaultToleranceFor("bytes_read");
  const ToleranceSpec spill = DefaultToleranceFor("spill_bytes_written");
  EXPECT_FALSE(spill.informational);
  EXPECT_TRUE(spill.upper_only);
  EXPECT_EQ(spill.rel, read.rel);
  EXPECT_EQ(spill.abs_floor, read.abs_floor);

  BenchRecord baseline = MakeRecord();
  baseline.SetMetric("spill_bytes_written", 184638656.0);
  BenchRecord within = baseline;
  within.SetMetric("spill_bytes_written", 184638656.0 * 1.015);
  EXPECT_TRUE(CompareRecord(baseline, within).passed);
  // A better encoder is an improvement, never a failure.
  BenchRecord smaller = baseline;
  smaller.SetMetric("spill_bytes_written", 184638656.0 * 0.8);
  EXPECT_TRUE(CompareRecord(baseline, smaller).passed);
  BenchRecord larger = baseline;
  larger.SetMetric("spill_bytes_written", 184638656.0 * 1.03);
  EXPECT_FALSE(CompareRecord(baseline, larger).passed);

  const Scenario* scenario = FindScenario("2psl_rmat_s22_k32_spill");
  ASSERT_NE(scenario, nullptr);
  const std::vector<std::string> gated = GatedMetricsForScenario(*scenario);
  EXPECT_NE(std::find(gated.begin(), gated.end(), "spill_bytes_written"),
            gated.end());
}

TEST(ComparatorTest, ParallelWallTimeIsGatedOneSided) {
  // A gross wall-time blowup at threads=4 is a regression (a parallel
  // path that re-serialized shows up as a multiple); the engine clamps
  // workers to the pool, so the worst case on any machine shape is the
  // sequential algorithm and the one-sided band stays meaningful.
  BenchRecord baseline = MakeRecord();
  baseline.threads = 4;
  BenchRecord current = baseline;
  current.SetMetric("seconds", 0.125 * 50);
  EXPECT_FALSE(CompareRecord(baseline, current).passed);

  // Within the generous rel band (and faster runs) still pass.
  BenchRecord mild = baseline;
  mild.SetMetric("seconds", 0.125 * 2.5);
  EXPECT_TRUE(CompareRecord(baseline, mild).passed);
  BenchRecord faster = baseline;
  faster.SetMetric("seconds", 0.125 * 0.3);
  EXPECT_TRUE(CompareRecord(baseline, faster).passed);

  const ToleranceSpec parallel = DefaultToleranceFor("seconds", 4);
  EXPECT_FALSE(parallel.informational);
  EXPECT_TRUE(parallel.upper_only);
  const ToleranceSpec sequential = DefaultToleranceFor("seconds", 1);
  EXPECT_FALSE(sequential.informational);
  EXPECT_EQ(parallel.rel, sequential.rel);
}

TEST(ComparatorTest, ParallelQualityStillGatedTwoSided) {
  BenchRecord baseline = MakeRecord();
  baseline.threads = 4;
  // 5% rf noise from interleaving: inside the widened parallel band.
  BenchRecord noisy = baseline;
  noisy.SetMetric("replication_factor", 2.375 * 1.05);
  EXPECT_TRUE(CompareRecord(baseline, noisy).passed);
  // A 15% move in either direction is a real quality change.
  BenchRecord worse = baseline;
  worse.SetMetric("replication_factor", 2.375 * 1.15);
  EXPECT_FALSE(CompareRecord(baseline, worse).passed);
  BenchRecord better = baseline;
  better.SetMetric("replication_factor", 2.375 * 0.85);
  EXPECT_FALSE(CompareRecord(baseline, better).passed);
  // The widened band is parallel-only: at threads=1 quality is
  // deterministic and 5% would already fail.
  EXPECT_FALSE(CompareRecord(MakeRecord(), [] {
                 BenchRecord record = MakeRecord();
                 record.SetMetric("replication_factor", 2.375 * 1.05);
                 return record;
               }()).passed);
}

TEST(ComparatorTest, NewScenarioPassesAndStaleBaselineIsFlagged) {
  BenchRecord baseline = MakeRecord();
  baseline.scenario = "retired_scenario";
  BenchRecord current = MakeRecord();
  const ComparisonReport report = CompareRecords({baseline}, {current});
  EXPECT_TRUE(report.passed);
  ASSERT_EQ(report.scenarios.size(), 1u);
  EXPECT_TRUE(report.scenarios[0].is_new);
  ASSERT_EQ(report.stale_baselines.size(), 1u);
  EXPECT_EQ(report.stale_baselines[0], "retired_scenario");
  EXPECT_NE(report.ToString().find("PASS"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ScaleShift env parsing (hardened against silent atoi garbage)
// ---------------------------------------------------------------------------

TEST(ParseThreadCountTest, AcceptsRangeRejectsGarbage) {
  uint32_t threads = 0;
  EXPECT_TRUE(ParseThreadCount("1", &threads));
  EXPECT_EQ(threads, 1u);
  EXPECT_TRUE(ParseThreadCount("1024", &threads));
  EXPECT_EQ(threads, 1024u);
  for (const char* bad :
       {"0", "-1", "1025", "abc", "4abc", "", " ", "1e2"}) {
    EXPECT_FALSE(ParseThreadCount(bad, &threads)) << "'" << bad << "'";
  }
  EXPECT_FALSE(ParseThreadCount(nullptr, &threads));
}

TEST(ScaleShiftTest, ParsesValidValuesAndRejectsGarbage) {
  unsetenv("TPSL_SCALE_SHIFT");
  EXPECT_EQ(ScaleShift(2), 2);
  setenv("TPSL_SCALE_SHIFT", "5", 1);
  EXPECT_EQ(ScaleShift(2), 5);
  setenv("TPSL_SCALE_SHIFT", "0", 1);
  EXPECT_EQ(ScaleShift(2), 0);
  for (const char* garbage : {"abc", "3abc", "", " ", "-1", "31", "1e3"}) {
    setenv("TPSL_SCALE_SHIFT", garbage, 1);
    EXPECT_EQ(ScaleShift(2), 2) << "value: '" << garbage << "'";
  }
  unsetenv("TPSL_SCALE_SHIFT");
}

// ---------------------------------------------------------------------------
// End-to-end scenario run
// ---------------------------------------------------------------------------

TEST(RunnerTest, RegistryHasTheContractedCoverage) {
  const std::vector<Scenario>& scenarios = PinnedScenarios();
  EXPECT_GE(scenarios.size(), 8u);
  bool has_2psl = false;
  std::set<std::string> baselines;
  for (const Scenario& scenario : scenarios) {
    has_2psl = has_2psl || scenario.partitioner == "2PS-L";
    if (scenario.partitioner != "2PS-L") {
      baselines.insert(scenario.partitioner);
    }
    EXPECT_NE(FindScenario(scenario.name), nullptr);
  }
  EXPECT_TRUE(has_2psl);
  EXPECT_GE(baselines.size(), 3u);
  EXPECT_EQ(FindScenario("no_such_scenario"), nullptr);
}

/// In-memory scenarios need no catalog: the default context runs them.
StatusOr<BenchRecord> RunInMemory(const Scenario& scenario,
                                  const RunScenarioOptions& options) {
  ingest::ScenarioRunContext context;
  context.options = options;
  return ingest::RunScenarioWithIngest(scenario, context);
}

TEST(RunnerTest, EndToEndScenarioPopulatesFiniteMetrics) {
  const Scenario* scenario = FindScenario("2psl_ok_k32");
  ASSERT_NE(scenario, nullptr);
  RunScenarioOptions options;
  options.extra_scale_shift = 4;  // keep the unit test in milliseconds
  auto record = RunInMemory(*scenario, options);
  ASSERT_TRUE(record.ok()) << record.status();

  EXPECT_EQ(record->scenario, scenario->name);
  EXPECT_EQ(record->partitioner, "2PS-L");
  EXPECT_EQ(record->k, 32u);
  EXPECT_EQ(record->scale_shift, scenario->scale_shift + 4);
  EXPECT_EQ(record->threads, scenario->threads);
  for (const char* name : {"seconds", "replication_factor", "measured_alpha",
                           "state_bytes", "num_edges", "peak_rss_bytes"}) {
    const double* value = record->FindMetric(name);
    ASSERT_NE(value, nullptr) << name;
    EXPECT_TRUE(std::isfinite(*value)) << name;
    EXPECT_GE(*value, 0.0) << name;
  }
  EXPECT_GE(*record->FindMetric("replication_factor"), 1.0);
  EXPECT_GT(*record->FindMetric("num_edges"), 0.0);
  EXPECT_GT(*record->FindMetric("peak_rss_bytes"), 0.0);
  // The 2PS partitioners account at least one named phase.
  bool has_phase = false;
  for (const auto& [name, value] : record->metrics) {
    has_phase = has_phase || name.starts_with("phase_seconds/");
  }
  EXPECT_TRUE(has_phase);

  // A fresh run of the same pinned scenario reproduces every
  // deterministic metric bit-for-bit — the property the baseline gate
  // stands on.
  auto again = RunInMemory(*scenario, options);
  ASSERT_TRUE(again.ok()) << again.status();
  for (const char* name :
       {"replication_factor", "measured_alpha", "num_edges"}) {
    EXPECT_EQ(*record->FindMetric(name), *again->FindMetric(name)) << name;
  }
}

/// Obs counters describe one repeat, the one whose timing the record
/// reports: three repeats count as many scored edges as one.
TEST(RunnerTest, ObsMetricsAreScopedToTheReportedRepeat) {
  const Scenario* scenario = FindScenario("2psl_ok_k32");
  ASSERT_NE(scenario, nullptr);
  RunScenarioOptions options;
  options.extra_scale_shift = 4;
  options.repeats = 1;
  auto once = RunInMemory(*scenario, options);
  ASSERT_TRUE(once.ok()) << once.status();
  options.repeats = 3;
  auto thrice = RunInMemory(*scenario, options);
  ASSERT_TRUE(thrice.ok()) << thrice.status();
  const double* scored_once = once->FindMetric("obs/partition.edges_scored");
  const double* scored_thrice =
      thrice->FindMetric("obs/partition.edges_scored");
  ASSERT_NE(scored_once, nullptr);
  ASSERT_NE(scored_thrice, nullptr);
  EXPECT_GT(*scored_once, 0.0);
  EXPECT_EQ(*scored_thrice, *scored_once);
}

/// Every value of a record comes from the repeat its obs snapshot
/// describes. At four workers placement depends on scheduling, so a
/// quality metric taken from a different repeat than the snapshot
/// would show here as a mismatch.
TEST(RunnerTest, QualityComesFromTheReportedRepeat) {
  for (const char* name : {"2psl_ok_k32", "2psl_par_ok_k32_t4"}) {
    const Scenario* scenario = FindScenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    RunScenarioOptions options;
    options.extra_scale_shift = 4;
    options.repeats = 3;
    auto record = RunInMemory(*scenario, options);
    ASSERT_TRUE(record.ok()) << name << ": " << record.status();
    const double* rf = record->FindMetric("replication_factor");
    const double* gauge = record->FindMetric("obs/quality.replication_factor");
    ASSERT_NE(rf, nullptr) << name;
    ASSERT_NE(gauge, nullptr) << name;
    EXPECT_EQ(*rf, *gauge) << name;
  }
}

TEST(ScenarioRegistryTest, SuggestsClosestNamesForTypos) {
  // One edit away from a pinned name resolves to it first.
  const auto close = SuggestScenarioNames("serve_ok_k32_r44");
  ASSERT_FALSE(close.empty());
  EXPECT_EQ(close.front(), "serve_ok_k32_r4");
  // A substring matches even when the full name is many edits away.
  const auto substring = SuggestScenarioNames("serve_ok");
  ASSERT_FALSE(substring.empty());
  EXPECT_TRUE(substring.front().starts_with("serve_ok_k32"));
  // Garbage nowhere near the registry suggests nothing.
  EXPECT_TRUE(SuggestScenarioNames("xqzzjvwpf").empty());
  EXPECT_LE(SuggestScenarioNames("2psl").size(), 3u);
}

TEST(ScenarioRegistryTest, ServeScenariosGateServingMetrics) {
  const Scenario* scenario = FindScenario("serve_ok_k32_r4");
  ASSERT_NE(scenario, nullptr);
  EXPECT_EQ(scenario->kind, ScenarioKind::kServe);
  const std::vector<std::string> gated = GatedMetricsForScenario(*scenario);
  for (const char* required :
       {"lookup_qps", "mutation_qps", "lookup_p50_seconds",
        "lookup_p99_seconds", "live_edges", "replication_factor",
        "epochs_published", "rebootstraps"}) {
    EXPECT_NE(std::find(gated.begin(), gated.end(), required), gated.end())
        << required;
  }
}

}  // namespace
}  // namespace benchkit
}  // namespace tpsl
