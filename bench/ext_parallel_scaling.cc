// Extension experiment: parallel two-phase partitioning on the shared
// execution engine (CuSP-style, see the paper's related work). Two
// regimes:
//  * 2PS-L scoring costs ~3 ns/edge, so the serialized stream reader
//    and sink bound throughput (Amdahl) — parallel workers gain
//    nothing, which is itself the paper's point: linear-time scoring
//    does not need parallelization.
//  * 2PS-HDRF scoring costs O(k) per edge; here the worker pool gives
//    real speedups, at a small quality cost from stale shared state
//    ("staleness ... can lead to lower partitioning quality").
//
// Unlike the paper-figure benches, this sweep is tracked: every
// configuration is emitted as a benchkit JSON record
// (BENCH_parscale_<mode>_t<threads>.json) with the thread count as a
// record dimension, so runs can be diffed with the benchkit comparator
// instead of living in scrollback. Pass --out=DIR to choose where
// (default bench_out); the pinned 2psl_par_* scenarios in the registry
// gate the 1/2/4-thread points in CI.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "benchkit/measure.h"
#include "benchkit/record.h"
#include "core/two_phase_partitioner.h"
#include "graph/in_memory_edge_stream.h"

namespace {

/// Quality + run-time of one configuration.
struct Point {
  double rf;
  double total_seconds;
  double phase2_seconds;
  double alpha;
  uint64_t state_bytes;
};

tpsl::StatusOr<Point> Run(tpsl::Partitioner& partitioner,
                          const std::vector<tpsl::Edge>& edges, uint32_t k,
                          uint32_t threads) {
  tpsl::InMemoryEdgeStream stream(edges);
  tpsl::PartitionConfig config;
  config.num_partitions = k;
  config.exec.threads = threads;
  TPSL_ASSIGN_OR_RETURN(tpsl::RunResult result,
                        tpsl::RunPartitioner(partitioner, stream, config));
  return Point{result.quality.replication_factor,
               result.stats.TotalSeconds(),
               result.stats.phase_seconds.at("partitioning"),
               result.quality.measured_alpha, result.stats.state_bytes};
}

tpsl::benchkit::BenchRecord MakeRecord(const std::string& name,
                                       const std::string& partitioner,
                                       uint32_t k, int shift, uint32_t threads,
                                       const Point& point) {
  tpsl::benchkit::BenchRecord record;
  record.scenario = name;
  record.partitioner = partitioner;
  record.dataset = "OK";
  record.k = k;
  record.scale_shift = shift;
  record.seed = 42;
  record.threads = threads;
  record.SetMetric("seconds", point.total_seconds);
  record.SetMetric("phase_seconds/partitioning", point.phase2_seconds);
  record.SetMetric("replication_factor", point.rf);
  record.SetMetric("measured_alpha", point.alpha);
  record.SetMetric("state_bytes", static_cast<double>(point.state_bytes));
  return record;
}

bool EmitRecord(const tpsl::benchkit::BenchRecord& record,
                const std::string& out_dir) {
  const std::string path =
      out_dir + "/" + tpsl::benchkit::RecordFileName(record.scenario);
  const tpsl::Status status = tpsl::benchkit::WriteRecordFile(record, path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = "bench_out";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_dir = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--out=DIR]\n", argv[0]);
      return 2;
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  const int shift = tpsl::benchkit::ScaleShift(0);
  auto edges_or = tpsl::LoadDataset("OK", shift);
  if (!edges_or.ok()) {
    std::fprintf(stderr, "%s\n", edges_or.status().ToString().c_str());
    return 1;
  }
  const uint32_t k = 256;  // the expensive-scoring regime

  tpsl::benchkit::PrintHeader("Extension: parallel scaling (OK, k=256)");
  std::printf("%zu edges; records -> %s\n\n", edges_or->size(),
              out_dir.c_str());
  std::printf("%-22s %10s %12s %12s\n", "configuration", "rf", "phase2(s)",
              "speedup");

  // 2PS-L on one thread: the linear-scoring reference.
  {
    tpsl::TwoPhasePartitioner linear;
    auto point = Run(linear, *edges_or, k, /*threads=*/1);
    if (!point.ok()) {
      return 1;
    }
    std::printf("%-22s %10.3f %12.4f %12s\n", "2PS-L 1 thr", point->rf,
                point->phase2_seconds, "-");
    if (!EmitRecord(MakeRecord("parscale_2psl_seq", "2PS-L", k, shift, 1,
                               *point),
                    out_dir)) {
      return 1;
    }
  }

  // 2PS-HDRF across thread counts; speedups are against its 1-thread
  // run.
  tpsl::TwoPhasePartitioner::Options options;
  options.scoring = tpsl::TwoPhasePartitioner::ScoringMode::kHdrf;
  tpsl::TwoPhasePartitioner hdrf(options);
  double single_thread_phase2 = 0;
  for (const uint32_t threads : {1u, 2u, 4u, 8u, 16u}) {
    auto point = Run(hdrf, *edges_or, k, threads);
    if (!point.ok()) {
      return 1;
    }
    if (threads == 1) {
      single_thread_phase2 = point->phase2_seconds;
    }
    char label[48], speedup[32];
    std::snprintf(label, sizeof(label), "2PS-HDRF %2u thr", threads);
    std::snprintf(speedup, sizeof(speedup), "%.2fx",
                  single_thread_phase2 / point->phase2_seconds);
    std::printf("%-22s %10.3f %12.4f %12s\n", label, point->rf,
                point->phase2_seconds, speedup);
    if (!EmitRecord(MakeRecord("parscale_2pshdrf_par_t" +
                                   std::to_string(threads),
                               "2PS-HDRF", k, shift, threads, *point),
                    out_dir)) {
      return 1;
    }
  }
  std::printf(
      "\nExpected: multi-threaded 2PS-HDRF approaches the 1-thread 2PS-L "
      "time as threads grow (speedup on the O(k) scoring), with rf "
      "within a few percent of 1-thread 2PS-HDRF. 2PS-L itself gains "
      "nothing from threads — its per-edge work is already cheaper than "
      "the coordination, the whole point of linear-time scoring.\n");
  return 0;
}
