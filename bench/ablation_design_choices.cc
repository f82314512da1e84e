// Ablation study of the 2PS-L design choices:
//   1. cluster volume cap factor (the paper mandates a cap but leaves
//      its value open),
//   2. Graham LPT scheduling vs naive round-robin cluster mapping,
//   3. the cluster-volume term of the scoring function,
//   4. a cap that never binds (original Hollocou behaviour).
// Run on one social (OK) and one web (UK) graph at k = 32.
#include <cstdio>

#include "benchkit/measure.h"
#include "core/two_phase_partitioner.h"
#include "graph/in_memory_edge_stream.h"

namespace {

constexpr uint32_t kPartitions = 32;

tpsl::StatusOr<tpsl::RunResult> RunVariant(
    const std::vector<tpsl::Edge>& edges,
    const tpsl::TwoPhasePartitioner::Options& options) {
  tpsl::TwoPhasePartitioner partitioner(options);
  tpsl::InMemoryEdgeStream stream(edges);
  tpsl::PartitionConfig config;
  config.num_partitions = kPartitions;
  return tpsl::RunPartitioner(partitioner, stream, config);
}

/// Prints one variant's row; returns whether the variant ran.
bool Report(const char* label, const tpsl::StatusOr<tpsl::RunResult>& r,
            uint64_t num_edges) {
  if (!r.ok()) {
    std::printf("  %-28s FAILED: %s\n", label, r.status().ToString().c_str());
    return false;
  }
  std::printf("  %-28s rf=%7.3f time=%7.4fs prepart=%4.1f%%\n", label,
              r->quality.replication_factor, r->stats.TotalSeconds(),
              100.0 * static_cast<double>(r->stats.prepartitioned_edges) /
                  static_cast<double>(num_edges));
  return true;
}

}  // namespace

int main() {
  const int shift = tpsl::benchkit::ScaleShift(2);
  tpsl::benchkit::PrintHeader("Ablation: 2PS-L design choices at k=32");

  bool all_ran = true;
  for (const char* dataset : {"OK", "UK"}) {
    auto edges_or = tpsl::LoadDataset(dataset, shift);
    if (!edges_or.ok()) {
      std::fprintf(stderr, "%s\n", edges_or.status().ToString().c_str());
      return 1;
    }
    const auto& edges = *edges_or;
    std::printf("\n%s (%zu edges)\n", dataset, edges.size());

    std::printf(" volume cap factor sweep:\n");
    for (const double cap : {0.1, 0.25, 0.5, 1.0, 2.0}) {
      tpsl::TwoPhasePartitioner::Options options;
      options.clustering.volume_cap_factor = cap;
      char label[64];
      std::snprintf(label, sizeof(label), "cap=%.2f", cap);
      all_ran &= Report(label, RunVariant(edges, options), edges.size());
    }
    {
      tpsl::TwoPhasePartitioner::Options options;
      // A factor of k makes the cap 2|E|, which never binds.
      options.clustering.volume_cap_factor = kPartitions;
      all_ran &= Report("cap disabled (Hollocou)",
                        RunVariant(edges, options), edges.size());
    }

    std::printf(" cluster-to-partition mapping:\n");
    {
      tpsl::TwoPhasePartitioner::Options options;
      all_ran &= Report("Graham LPT (default)", RunVariant(edges, options),
                        edges.size());
      options.scheduling =
          tpsl::TwoPhasePartitioner::SchedulingMode::kRoundRobin;
      all_ran &=
          Report("round robin", RunVariant(edges, options), edges.size());
    }

    std::printf(" scoring function:\n");
    {
      tpsl::TwoPhasePartitioner::Options options;
      all_ran &= Report("with cluster-volume term",
                        RunVariant(edges, options), edges.size());
      options.use_cluster_volume_term = false;
      all_ran &= Report("without cluster-volume term",
                        RunVariant(edges, options), edges.size());
    }
  }
  std::printf(
      "\nExpected: small caps (0.1-0.5) beat large caps (volume-greedy "
      "migration mixes communities; disabling the cap maximizes the "
      "prepartitioned share but ruins rf AND balance-feasibility); "
      "Graham clearly beats round robin; the cluster-volume scoring "
      "term is roughly neutral at laptop scale.\n");
  return all_ran ? 0 : 1;
}
