#include "benchkit/measure.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "baselines/registry.h"
#include "graph/datasets.h"
#include "graph/in_memory_edge_stream.h"
#include "partition/runner.h"
#include "util/logging.h"

namespace tpsl {
namespace benchkit {

int ScaleShift(int default_shift) {
  const char* env = std::getenv("TPSL_SCALE_SHIFT");
  if (env == nullptr || *env == '\0') {
    return default_shift;
  }
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(env, &end, 10);
  if (errno != 0 || end == env || *end != '\0' || value < 0 || value > 30) {
    TPSL_LOG(Warning) << "Ignoring malformed TPSL_SCALE_SHIFT='" << env
                      << "' (expected an integer in [0, 30]); using default "
                      << default_shift;
    return default_shift;
  }
  return static_cast<int>(value);
}

bool ParseThreadCount(const char* text, uint32_t* threads) {
  if (text == nullptr || *text == '\0') {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long value = std::strtoul(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || value == 0 ||
      value > 1024) {
    return false;
  }
  *threads = static_cast<uint32_t>(value);
  return true;
}

StatusOr<Measurement> MeasureOnEdges(const std::string& partitioner,
                                     const std::string& dataset,
                                     const std::vector<Edge>& edges,
                                     const PartitionConfig& config) {
  TPSL_ASSIGN_OR_RETURN(std::unique_ptr<Partitioner> p,
                        MakePartitioner(partitioner));
  InMemoryEdgeStream stream{std::span<const Edge>(edges)};
  TPSL_ASSIGN_OR_RETURN(RunResult result, RunPartitioner(*p, stream, config));

  Measurement m;
  m.partitioner = partitioner;
  m.dataset = dataset;
  m.k = config.num_partitions;
  m.replication_factor = result.quality.replication_factor;
  m.seconds = result.stats.TotalSeconds();
  m.measured_alpha = result.quality.measured_alpha;
  m.state_bytes = result.stats.state_bytes;
  m.stats = result.stats;
  return m;
}

StatusOr<Measurement> MeasureOnEdges(const std::string& partitioner,
                                     const std::string& dataset,
                                     const std::vector<Edge>& edges,
                                     uint32_t k) {
  PartitionConfig config;
  config.num_partitions = k;
  if (partitioner == "DNE") {
    config.exec.threads = 0;  // DNE is a parallel partitioner (Fig. 4).
  }
  return MeasureOnEdges(partitioner, dataset, edges, config);
}

StatusOr<Measurement> Measure(const std::string& partitioner,
                              const std::string& dataset, uint32_t k,
                              int scale_shift) {
  TPSL_ASSIGN_OR_RETURN(std::vector<Edge> edges,
                        LoadDataset(dataset, scale_shift));
  return MeasureOnEdges(partitioner, dataset, edges, k);
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintRowHeader() {
  std::printf("%-10s %-8s %6s %10s %12s %10s %14s\n", "partitioner",
              "dataset", "k", "rf", "time(s)", "alpha", "state(bytes)");
}

void PrintRow(const Measurement& m) {
  std::printf("%-10s %-8s %6u %10.3f %12.4f %10.3f %14llu\n",
              m.partitioner.c_str(), m.dataset.c_str(), m.k,
              m.replication_factor, m.seconds, m.measured_alpha,
              static_cast<unsigned long long>(m.state_bytes));
}

}  // namespace benchkit
}  // namespace tpsl
