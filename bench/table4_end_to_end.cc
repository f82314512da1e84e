// Reproduces paper Table IV: end-to-end time (partitioning + 100
// PageRank iterations) on OK and WI at k = 32 for 2PS-L, 2PS-HDRF,
// HDRF, DBH, SNE, HEP-1. The Spark/GraphX cluster is replaced by the
// distributed-processing simulator (src/procsim; README "Streaming sink
// pipeline"): PageRank values are
// computed for real; processing time is modeled as compute + replica
// synchronization, so it grows with the replication factor exactly as
// in the paper.
#include <cstdio>
#include <string>

#include "baselines/registry.h"
#include "benchkit/measure.h"
#include "graph/in_memory_edge_stream.h"
#include "procsim/distributed_pagerank.h"

int main() {
  const int shift = tpsl::benchkit::ScaleShift(2);

  tpsl::benchkit::PrintHeader(
      "Table IV: partitioning + PageRank(100) end-to-end, k=32");
  std::printf("%-10s %-8s %8s %14s %14s %12s\n", "partitioner", "dataset",
              "rf", "partition(s)", "pagerank(s)", "total(s)");

  for (const char* dataset : {"OK", "WI"}) {
    auto edges_or = tpsl::LoadDataset(dataset, shift);
    if (!edges_or.ok()) {
      std::fprintf(stderr, "%s\n", edges_or.status().ToString().c_str());
      return 1;
    }
    for (const char* name :
         {"2PS-L", "2PS-HDRF", "HDRF", "DBH", "SNE", "HEP-1"}) {
      auto partitioner_or = tpsl::MakePartitioner(name);
      if (!partitioner_or.ok()) {
        std::fprintf(stderr, "%s\n",
                     partitioner_or.status().ToString().c_str());
        return 1;
      }
      tpsl::InMemoryEdgeStream stream(*edges_or);
      tpsl::PartitionConfig config;
      config.num_partitions = 32;
      tpsl::RunOptions options;
      options.keep_partitions = true;
      auto run_or =
          tpsl::RunPartitioner(**partitioner_or, stream, config, options);
      if (!run_or.ok()) {
        std::fprintf(stderr, "%s: %s\n", name,
                     run_or.status().ToString().c_str());
        return 1;
      }

      tpsl::PageRankConfig pagerank;
      pagerank.iterations = 100;
      auto sim_or = tpsl::SimulateDistributedPageRank(run_or->partitions,
                                                      pagerank, {});
      if (!sim_or.ok()) {
        std::fprintf(stderr, "%s\n", sim_or.status().ToString().c_str());
        return 1;
      }
      const double partition_seconds = run_or->stats.TotalSeconds();
      std::printf("%-10s %-8s %8.2f %14.3f %14.3f %12.3f\n", name, dataset,
                  run_or->quality.replication_factor, partition_seconds,
                  sim_or->simulated_seconds,
                  partition_seconds + sim_or->simulated_seconds);
    }
    std::printf("\n");
  }
  std::printf(
      "Paper shape check: DBH loses end-to-end despite the fastest "
      "partitioning (its high rf inflates PageRank sync traffic); 2PS-L "
      "beats the expensive stateful partitioners (HDRF, 2PS-HDRF) on "
      "total time. Note: at laptop scale the in-memory phases of "
      "HEP-1/SNE are disproportionately cheap compared to the paper's "
      "billion-edge runs, so their partitioning-time disadvantage "
      "shrinks here.\n");
  return 0;
}
