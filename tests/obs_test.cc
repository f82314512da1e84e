#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "benchkit/json.h"
#include "exec/thread_pool.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "baselines/registry.h"
#include "graph/generators.h"
#include "graph/in_memory_edge_stream.h"
#include "partition/partitioner.h"
#include "partition/runner.h"
#include "partition/sink_pipeline.h"
#include "util/random.h"

namespace tpsl {
namespace obs {
namespace {

/// Every test leaves the process-wide trace layer the way it found it:
/// tracing off and rings empty, so suites interleave cleanly.
class TraceQuiescent : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTracingEnabled(false);
    ResetTrace();
  }
  void TearDown() override {
    SetTracingEnabled(false);
    ResetTrace();
  }
};

using TraceSpanTest = TraceQuiescent;
using TraceExportTest = TraceQuiescent;
using ObsConcurrencyTest = TraceQuiescent;

TEST_F(TraceSpanTest, DisabledTracingEmitsNothing) {
  const uint64_t before = GetTraceStats().emitted;
  for (int i = 0; i < 1000; ++i) {
    TraceSpan span("obs_test.noop", "test");
  }
  EmitComplete("obs_test.noop", "test", 0, 1);
  EmitCounter("obs_test.noop_counter", 1.0);
  EXPECT_EQ(GetTraceStats().emitted, before);
  const std::string json = ChromeTraceJson();
  EXPECT_EQ(json.find("obs_test.noop"), std::string::npos);
}

TEST_F(TraceSpanTest, EnabledSpanRecordsOneCompleteEvent) {
  SetTracingEnabled(true);
  const uint64_t before = GetTraceStats().emitted;
  {
    TraceSpan span("obs_test.one", "test");
  }
  const TraceStats stats = GetTraceStats();
  EXPECT_EQ(stats.emitted, before + 1);
  EXPECT_GE(stats.threads, 1u);
}

TEST_F(TraceSpanTest, StraddlingSpansEmitOnlyWhenOnAtBothEnds) {
  // The documented flip contract: a span emits only when tracing was
  // on at its open AND its close, so a mid-span disable suppresses the
  // partial event and a mid-span enable cannot fabricate one.
  SetTracingEnabled(true);
  const uint64_t before = GetTraceStats().emitted;
  {
    TraceSpan span("obs_test.straddle", "test");
    SetTracingEnabled(false);
  }
  EXPECT_EQ(GetTraceStats().emitted, before);
  {
    TraceSpan span("obs_test.straddle_off", "test");  // opened while off
  }
  EXPECT_EQ(GetTraceStats().emitted, before);
  SetTracingEnabled(false);
  {
    TraceSpan span("obs_test.straddle_on", "test");
    SetTracingEnabled(true);
  }
  EXPECT_EQ(GetTraceStats().emitted, before);
}

/// The golden export test: known events in, Chrome trace-event JSON
/// out, validated through benchkit's (independent) JSON parser the way
/// Perfetto would read it.
TEST_F(TraceExportTest, WriteChromeTraceProducesLoadableJson) {
  SetTracingEnabled(true);
  EmitComplete("obs_test.golden_span", "test_cat", 1000, 2500);
  EmitCounter("obs_test.golden_counter", 3.5);
  {
    TraceSpan span("obs_test.golden_scope", "test_cat");
  }
  SetTracingEnabled(false);

  const std::string path =
      (std::filesystem::temp_directory_path() / "tpsl_obs_test_trace.json")
          .string();
  ASSERT_TRUE(WriteChromeTrace(path).ok());

  std::string text;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[4096];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      text.append(buf, n);
    }
    std::fclose(f);
  }
  std::remove(path.c_str());

  auto parsed = benchkit::ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const benchkit::JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GE(events->array().size(), 3u);

  bool saw_golden_span = false;
  bool saw_counter = false;
  for (const benchkit::JsonValue& event : events->array()) {
    ASSERT_TRUE(event.is_object());
    const benchkit::JsonValue* name = event.Find("name");
    const benchkit::JsonValue* ph = event.Find("ph");
    const benchkit::JsonValue* ts = event.Find("ts");
    const benchkit::JsonValue* pid = event.Find("pid");
    const benchkit::JsonValue* tid = event.Find("tid");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);
    ASSERT_TRUE(name->is_string());
    ASSERT_TRUE(ph->is_string());
    ASSERT_TRUE(ts->is_number());
    const std::string& phase = ph->string_value();
    ASSERT_TRUE(phase == "X" || phase == "C") << phase;
    if (phase == "X") {
      const benchkit::JsonValue* dur = event.Find("dur");
      const benchkit::JsonValue* cat = event.Find("cat");
      ASSERT_NE(dur, nullptr);
      ASSERT_NE(cat, nullptr);
      ASSERT_TRUE(dur->is_number());
      if (name->string_value() == "obs_test.golden_span") {
        saw_golden_span = true;
        EXPECT_EQ(cat->string_value(), "test_cat");
        // ts/dur are microseconds: 1000ns start, 2500ns duration.
        EXPECT_DOUBLE_EQ(ts->number_value(), 1.0);
        EXPECT_DOUBLE_EQ(dur->number_value(), 2.5);
      }
    } else {
      const benchkit::JsonValue* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      const benchkit::JsonValue* value = args->Find("value");
      ASSERT_NE(value, nullptr);
      ASSERT_TRUE(value->is_number());
      if (name->string_value() == "obs_test.golden_counter") {
        saw_counter = true;
        EXPECT_DOUBLE_EQ(value->number_value(), 3.5);
      }
    }
  }
  EXPECT_TRUE(saw_golden_span);
  EXPECT_TRUE(saw_counter);
}

TEST_F(TraceExportTest, ResetTraceDropsRecordedEvents) {
  SetTracingEnabled(true);
  EmitComplete("obs_test.discard", "test", 0, 1);
  SetTracingEnabled(false);
  EXPECT_NE(ChromeTraceJson().find("obs_test.discard"), std::string::npos);
  ResetTrace();
  EXPECT_EQ(ChromeTraceJson().find("obs_test.discard"), std::string::npos);
  EXPECT_EQ(GetTraceStats().recorded, 0u);
}

TEST_F(TraceExportTest, RingWrapKeepsNewestAndCountsDropped) {
  SetTracingEnabled(true);
  // Far more events than one ring holds: the oldest are overwritten,
  // the stats ledger must account for every one.
  constexpr int kEvents = 20000;
  for (int i = 0; i < kEvents; ++i) {
    EmitComplete("obs_test.wrap", "test", i, 1);
  }
  SetTracingEnabled(false);
  const TraceStats stats = GetTraceStats();
  EXPECT_EQ(stats.emitted, static_cast<uint64_t>(kEvents));
  EXPECT_LT(stats.recorded, static_cast<uint64_t>(kEvents));
  EXPECT_EQ(stats.dropped, stats.emitted - stats.recorded);
  // The survivors are the newest events.
  auto parsed = benchkit::ParseJson(ChromeTraceJson());
  ASSERT_TRUE(parsed.ok());
  const benchkit::JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->array().size(), stats.recorded);
}

TEST(CounterTest, ShardedSumIsExact) {
  Counter counter;
  counter.Add(7);
  counter.Increment();
  EXPECT_EQ(counter.Total(), 8u);
  counter.Reset();
  EXPECT_EQ(counter.Total(), 0u);
}

TEST(CounterTest, ConcurrentAddsFromManyThreadsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter]() {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.Increment();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Total(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndReadRoundTripsDoubles) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(3.25);
  EXPECT_EQ(gauge.Value(), 3.25);
  gauge.Set(-1e-300);
  EXPECT_EQ(gauge.Value(), -1e-300);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0.0);
}

/// Property test: the histogram's percentiles must land in the same
/// log2 bucket as a sorted-vector oracle's ceil(q*n)-th sample, for
/// randomized log-uniform workloads.
TEST(HistogramTest, PercentilesMatchSortedOracleBucket) {
  SplitMix64 rng(0xb0b5eed);
  for (int trial = 0; trial < 20; ++trial) {
    Histogram hist;
    const size_t n = 1 + static_cast<size_t>(rng.Next() % 5000);
    std::vector<uint64_t> samples(n);
    for (uint64_t& sample : samples) {
      // Log-uniform nanoseconds over buckets 0..48: exercises many
      // buckets while keeping the seconds->nanos round trip in the
      // test's oracle comparison exact in double precision.
      sample = (rng.Next() & ((uint64_t{1} << 48) - 1)) >> (rng.Next() % 49);
      hist.RecordNanos(sample);
    }
    std::sort(samples.begin(), samples.end());
    const Histogram::Summary summary = hist.Summarize();
    ASSERT_EQ(summary.count, n);
    const auto oracle_bucket = [&](double q) {
      const size_t rank = static_cast<size_t>(
          std::ceil(q * static_cast<double>(n)));
      return Histogram::BucketOf(samples[(rank == 0 ? 1 : rank) - 1]);
    };
    const auto estimate_bucket = [](double estimate_seconds) {
      return Histogram::BucketOf(static_cast<uint64_t>(
          std::llround(estimate_seconds * 1e9)));
    };
    EXPECT_EQ(estimate_bucket(summary.p50), oracle_bucket(0.50))
        << "p50, n=" << n;
    EXPECT_EQ(estimate_bucket(summary.p90), oracle_bucket(0.90))
        << "p90, n=" << n;
    EXPECT_EQ(estimate_bucket(summary.p99), oracle_bucket(0.99))
        << "p99, n=" << n;
  }
}

TEST(HistogramTest, RecordSecondsClampsNonPositive) {
  Histogram hist;
  hist.RecordSeconds(-1.0);
  hist.RecordSeconds(0.0);
  const Histogram::Summary summary = hist.Summarize();
  EXPECT_EQ(summary.count, 2u);
  EXPECT_EQ(summary.p99, 0.0);  // bucket 0's representative
}

TEST(MetricsRegistryTest, HandlesAreStableAndResetKeepsThem) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("obs_test.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter, registry.GetCounter("obs_test.counter"));
  counter->Add(5);
  Gauge* gauge = registry.GetGauge("obs_test.gauge");
  gauge->Set(2.0);
  registry.GetHistogram("obs_test.hist")->RecordNanos(100);

  MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].first, "obs_test.counter");
  EXPECT_EQ(snapshot.counters[0].second, 5u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].second, 2.0);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].summary.count, 1u);

  registry.Reset();
  EXPECT_EQ(counter->Total(), 0u);      // same handle, zeroed
  EXPECT_EQ(gauge->Value(), 0.0);
  EXPECT_EQ(registry.Snapshot().histograms[0].summary.count, 0u);
}

/// The tsan target: spans, counter adds and histogram records pouring
/// out of pool workers while the main thread snapshots both the
/// metrics registry and the trace rings mid-write. The final totals
/// must still be exact; the concurrent reads must merely be torn-free
/// (which tsan + the seqlock check enforce).
TEST_F(ObsConcurrencyTest, SnapshotWhileWritingIsCleanAndExact) {
  SetTracingEnabled(true);
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("obs_test.hammer");
  Histogram* hist = registry.GetHistogram("obs_test.hammer_ns");

  constexpr int kTasks = 64;
  constexpr uint64_t kItersPerTask = 2000;
  std::atomic<bool> done{false};
  std::thread reader([&]() {
    uint64_t snapshots = 0;
    while (!done.load(std::memory_order_acquire)) {
      const MetricsSnapshot snapshot = registry.Snapshot();
      ASSERT_LE(snapshot.counters[0].second, kTasks * kItersPerTask);
      const std::string json = ChromeTraceJson();
      ASSERT_FALSE(json.empty());
      ++snapshots;
    }
    EXPECT_GT(snapshots, 0u);
  });

  {
    exec::ThreadPool pool(8);
    exec::TaskGroup group(pool);
    for (int task = 0; task < kTasks; ++task) {
      group.Submit([counter, hist, task]() {
        for (uint64_t i = 0; i < kItersPerTask; ++i) {
          TraceSpan span("obs_test.hammer_span", "test");
          counter->Increment();
          hist->RecordNanos(i * (task + 1));
        }
      });
    }
    group.Wait();
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(counter->Total(), kTasks * kItersPerTask);
  EXPECT_EQ(hist->Summarize().count, kTasks * kItersPerTask);
  const TraceStats stats = GetTraceStats();
  EXPECT_GE(stats.emitted, kTasks * kItersPerTask);
}

/// Runs `name` through RunPartitioner on an R-MAT graph of
/// 2^scale * 16 edges at k=8 and `threads` workers.
StatusOr<RunResult> RunOnRmat(const std::string& name, uint32_t scale,
                              uint32_t threads, exec::ThreadPool* pool) {
  RmatConfig rmat;
  rmat.scale = scale;
  rmat.edge_factor = 16;
  InMemoryEdgeStream stream(GenerateRmat(rmat));
  auto partitioner = MakePartitioner(name);
  if (!partitioner.ok()) {
    return partitioner.status();
  }
  PartitionConfig config;
  config.num_partitions = 8;
  config.exec.threads = threads;
  config.exec.pool = pool;
  return RunPartitioner(**partitioner, stream, config);
}

/// The 2PS placement counters count what their names say: the first
/// pass adds the edges it pre-partitions, the scoring pass the edges it
/// scores, and both the edges that overflowed, so all three reconcile
/// with the run's PartitionStats exactly.
TEST(PlacementCounterTest, TwoPhaseCountersMatchPartitionStats) {
  Counter* scored = MetricsRegistry::Default().GetCounter(
      "partition.edges_scored");
  Counter* prepartitioned = MetricsRegistry::Default().GetCounter(
      "partition.prepartitioned_edges");
  Counter* overflowed = MetricsRegistry::Default().GetCounter(
      "partition.overflow_edges");
  exec::ThreadPool pool(4);
  for (const char* name : {"2PS-L", "2PS-HDRF"}) {
    for (const uint32_t threads : {1u, 4u}) {
      const uint64_t scored_before = scored->Total();
      const uint64_t prepartitioned_before = prepartitioned->Total();
      const uint64_t overflowed_before = overflowed->Total();
      auto result = RunOnRmat(name, /*scale=*/12, threads, &pool);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const PartitionStats& stats = result->stats;
      EXPECT_GT(stats.remaining_edges, 0u);
      EXPECT_GT(stats.prepartitioned_edges, 0u);
      EXPECT_EQ(stats.prepartitioned_edges + stats.remaining_edges,
                result->quality.num_edges);
      EXPECT_EQ(scored->Total() - scored_before, stats.remaining_edges)
          << name << " threads=" << threads;
      EXPECT_EQ(prepartitioned->Total() - prepartitioned_before,
                stats.prepartitioned_edges)
          << name << " threads=" << threads;
      EXPECT_EQ(overflowed->Total() - overflowed_before, stats.overflow_edges)
          << name << " threads=" << threads;
    }
  }
}

/// partition.edges_scored counts the edges a scoring pass scores and
/// places, nothing else. On a 50-leaf star plus a 30-edge matching,
/// HEP's streaming pass scores only the edges with an endpoint above
/// τ·(mean degree); the in-memory phase placed the rest. Partitioners
/// without a scoring pass add nothing.
TEST(PlacementCounterTest, EveryRegistryPartitionerCountsWhatItScores) {
  std::vector<Edge> edges;
  for (VertexId leaf = 1; leaf <= 50; ++leaf) {
    edges.push_back({0, leaf});
  }
  for (VertexId i = 0; i < 30; ++i) {
    edges.push_back({51 + 2 * i, 52 + 2 * i});
  }
  std::vector<uint32_t> degree(111, 0);
  for (const Edge& e : edges) {
    ++degree[e.first];
    ++degree[e.second];
  }
  // Every vertex is covered, so the mean degree is 2|E| / |V|.
  const double mean_degree = 2.0 * edges.size() / degree.size();
  const auto high_degree_edges = [&](double tau) {
    const double threshold = tau * mean_degree;
    uint64_t count = 0;
    for (const Edge& e : edges) {
      count += degree[e.first] > threshold || degree[e.second] > threshold;
    }
    return count;
  };
  ASSERT_EQ(high_degree_edges(10), 50u);

  Counter* scored = MetricsRegistry::Default().GetCounter(
      "partition.edges_scored");
  for (const std::string name :
       {"2PS-L", "2PS-L(par)", "2PS-HDRF", "2PS-HDRF(par)", "HDRF", "DBH",
        "Grid", "Hash", "Greedy", "ADWISE", "NE", "SNE", "DNE", "HEP-1",
        "HEP-10", "HEP-100", "METIS*"}) {
    auto partitioner = MakePartitioner(name);
    ASSERT_TRUE(partitioner.ok()) << name;
    InMemoryEdgeStream stream(edges);
    PartitionConfig config;
    config.num_partitions = 4;
    config.exec.threads = 1;
    const uint64_t before = scored->Total();
    auto result = RunPartitioner(**partitioner, stream, config);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    uint64_t expected = 0;
    if (name.rfind("2PS-", 0) == 0) {
      expected = result->stats.remaining_edges;
    } else if (name == "HDRF" || name == "Greedy" || name == "DBH" ||
               name == "ADWISE") {
      expected = edges.size();
    } else if (name.rfind("HEP-", 0) == 0) {
      expected = high_degree_edges(std::stod(name.substr(4)));
    }
    EXPECT_EQ(scored->Total() - before, expected) << name;
  }
}

using QualityGaugeTest = TraceQuiescent;

/// The quality gauges describe the run they follow: the runner sets
/// them once from the final quality, at any thread count.
TEST_F(QualityGaugeTest, GaugesReconcileWithRunQuality) {
  Gauge* rf_gauge =
      MetricsRegistry::Default().GetGauge("quality.replication_factor");
  Gauge* skew_gauge =
      MetricsRegistry::Default().GetGauge("quality.max_load_skew");
  exec::ThreadPool pool(4);
  for (const uint32_t threads : {1u, 4u}) {
    rf_gauge->Reset();
    skew_gauge->Reset();
    auto result = RunOnRmat("2PS-L", /*scale=*/13, threads, &pool);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(rf_gauge->Value(), result->quality.replication_factor)
        << "threads=" << threads;
    EXPECT_EQ(skew_gauge->Value(), result->quality.measured_alpha)
        << "threads=" << threads;
  }
}

/// With tracing on, the quality sink emits the running quality as
/// counter events each 2^16 assignments it absorbs: one sample per
/// crossed boundary, whatever the scheduling of the four workers that
/// deliver to it. With tracing off the sink takes no samples at all.
TEST_F(QualityGaugeTest, TracedRunEmitsConvergenceCounters) {
  Histogram* sample_hist =
      MetricsRegistry::Default().GetHistogram("sink.quality_sample_seconds");
  exec::ThreadPool pool(4);
  sample_hist->Reset();
  ASSERT_TRUE(RunOnRmat("2PS-L", /*scale=*/15, /*threads=*/4, &pool).ok());
  EXPECT_EQ(sample_hist->Summarize().count, 0u);

  SetTracingEnabled(true);
  auto result = RunOnRmat("2PS-L", /*scale=*/15, /*threads=*/4, &pool);
  SetTracingEnabled(false);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->quality.num_edges, uint64_t{1} << 18);

  auto parsed = benchkit::ParseJson(ChromeTraceJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const benchkit::JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  uint64_t rf_samples = 0;
  uint64_t skew_samples = 0;
  for (const benchkit::JsonValue& event : events->array()) {
    if (event.Find("ph")->string_value() != "C") {
      continue;
    }
    const std::string& name = event.Find("name")->string_value();
    const double value = event.Find("args")->Find("value")->number_value();
    if (name == "quality.replication_factor") {
      ++rf_samples;
      EXPECT_GE(value, 1.0);
      EXPECT_LE(value, 8.0);
    } else if (name == "quality.max_load_skew") {
      ++skew_samples;
      EXPECT_GE(value, 1.0);
    }
  }
  EXPECT_EQ(rf_samples,
            result->quality.num_edges >> QualitySink::kSampleIntervalLog2);
  EXPECT_EQ(rf_samples, skew_samples);
  EXPECT_EQ(sample_hist->Summarize().count, rf_samples);
}

}  // namespace
}  // namespace obs
}  // namespace tpsl
