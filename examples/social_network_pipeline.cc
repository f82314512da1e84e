// Social-network scenario (the paper's OK/TW/FR motivation): a skewed
// power-law graph must be split across 32 workers for distributed
// processing. Compares the streaming partitioner roster on replication
// factor vs run-time, the paper's central trade-off — quality is
// computed by the runner's streaming sink, so the sweep never
// materializes a partitioning — and then re-runs the winner with the
// spill sink to write per-partition compressed edge files, the hand-off
// format for a downstream loader.
#include <cstdio>
#include <string>

#include "baselines/registry.h"
#include "graph/datasets.h"
#include "graph/in_memory_edge_stream.h"
#include "partition/runner.h"

int main() {
  auto edges_or = tpsl::LoadDataset("OK", /*scale_shift=*/2);
  if (!edges_or.ok()) {
    std::fprintf(stderr, "%s\n", edges_or.status().ToString().c_str());
    return 1;
  }
  std::printf("OK-like social graph: %zu edges\n\n", edges_or->size());
  std::printf("%-10s %10s %12s %10s\n", "name", "rf", "time(s)", "alpha");

  std::string best_name;
  double best_rf = 1e30;

  for (const std::string& name : tpsl::StreamingPartitionerNames()) {
    auto partitioner_or = tpsl::MakePartitioner(name);
    if (!partitioner_or.ok()) {
      continue;
    }
    tpsl::InMemoryEdgeStream stream(*edges_or);
    tpsl::PartitionConfig config;
    config.num_partitions = 32;
    auto result = tpsl::RunPartitioner(**partitioner_or, stream, config);
    if (!result.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                   result.status().ToString().c_str());
      continue;
    }
    std::printf("%-10s %10.3f %12.3f %10.3f\n", name.c_str(),
                result->quality.replication_factor,
                result->stats.TotalSeconds(),
                result->quality.measured_alpha);
    if (result->quality.replication_factor < best_rf) {
      best_rf = result->quality.replication_factor;
      best_name = name;
    }
  }

  // Persist the best partitioning: re-run the winner with the
  // disk-backed spill sink, which streams each assignment straight to
  // its partition file as it is made.
  std::printf("\nbest streaming partitioner: %s (rf=%.3f)\n",
              best_name.c_str(), best_rf);
  auto winner_or = tpsl::MakePartitioner(best_name);
  if (!winner_or.ok()) {
    return 1;
  }
  tpsl::InMemoryEdgeStream stream(*edges_or);
  tpsl::PartitionConfig config;
  config.num_partitions = 32;
  tpsl::RunOptions options;
  options.spill_dir = "/tmp/tpsl_social_spill";
  options.spill_stem = "social";
  auto spilled = tpsl::RunPartitioner(**winner_or, stream, config, options);
  if (!spilled.ok()) {
    std::fprintf(stderr, "%s\n", spilled.status().ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu partition files (%.1f MB) to %s.part*.bin\n",
              spilled->spill.partition_paths.size(),
              static_cast<double>(spilled->spill.bytes_written) / 1e6,
              spilled->spill.prefix.c_str());
  return 0;
}
