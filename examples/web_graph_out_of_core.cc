// Out-of-core scenario (the paper's UK/GSH/WDC motivation): the graph
// lives on disk as a binary edge list and never fits in memory as a
// whole. 2PS-L streams it in 4 sequential passes with O(|V|*k) state.
// The example also prices the run on slower storage from the stream's
// on-disk byte account (paper Table V): multi-pass streaming is cheap
// from page cache, noticeable on SSD, painful on HDD.
#include <cstdio>
#include <string>

#include "core/two_phase_partitioner.h"
#include "graph/datasets.h"
#include "io/mmap_edge_stream.h"
#include "io/edge_file.h"
#include "io/storage_profile.h"
#include "partition/runner.h"

int main() {
  // Stage the "web crawl" on disk.
  auto edges_or = tpsl::LoadDataset("UK", /*scale_shift=*/2);
  if (!edges_or.ok()) {
    std::fprintf(stderr, "%s\n", edges_or.status().ToString().c_str());
    return 1;
  }
  const std::string path = "/tmp/tpsl_web_graph.bin";
  if (!tpsl::io::WriteEdgeFile(path, *edges_or,
                               tpsl::io::EdgeFileFormat::kCompressedBlocks)
           .ok()) {
    std::fprintf(stderr, "cannot stage graph at %s\n", path.c_str());
    return 1;
  }
  const double gib =
      static_cast<double>(edges_or->size() * sizeof(tpsl::Edge)) / (1 << 30);

  // Partition straight from the mapping: blocks decode as the
  // partitioner reads them and consumed pages are dropped, so resident
  // memory stays bounded no matter how large the file is.
  auto file_or = tpsl::io::MmapEdgeStream::Open(path);
  if (!file_or.ok()) {
    std::fprintf(stderr, "%s\n", file_or.status().ToString().c_str());
    return 1;
  }
  const double disk_gib =
      static_cast<double>((*file_or)->file_bytes()) / (1 << 30);
  std::printf(
      "staged UK-like web graph: %zu edges (%.3f GiB decoded, %.3f GiB "
      "on disk, %.2fx) at %s\n",
      edges_or->size(), gib, disk_gib, gib / disk_gib, path.c_str());

  tpsl::TwoPhasePartitioner partitioner;
  tpsl::PartitionConfig config;
  config.num_partitions = 128;
  // The full storage-to-storage loop: quality and validation run as
  // streaming sinks (no edge lists), and the spill sink writes the
  // partitioned graph straight back to disk as it is assigned.
  tpsl::RunOptions options;
  options.spill_dir = "/tmp/tpsl_web_graph_spill";
  options.spill_stem = "web";
  auto result = tpsl::RunPartitioner(partitioner, **file_or, config, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  const double compute = result->stats.TotalSeconds();
  const tpsl::StreamIoStats io = (*file_or)->Io();
  std::printf("\nk=128 out-of-core partitioning\n");
  std::printf("replication factor : %.3f\n",
              result->quality.replication_factor);
  std::printf("compute time       : %.3f s\n", compute);
  std::printf("stream passes      : %llu (degree, clustering, "
              "pre-partition, scoring)\n",
              static_cast<unsigned long long>(io.passes));
  std::printf("bytes streamed     : %.3f GiB\n",
              static_cast<double>(io.disk_bytes_total) / (1 << 30));
  std::printf("run state          : %.1f MiB incl. metric/writer sinks "
              "(vs %.3f GiB edge data)\n",
              static_cast<double>(result->stats.state_bytes) / (1 << 20),
              gib);
  std::printf("spilled partitions : %.3f GiB at %s.part*.bin\n",
              static_cast<double>(result->spill.bytes_written) / (1 << 30),
              result->spill.prefix.c_str());
  tpsl::RemoveSpilledFiles(result->spill);
  std::printf("\nstorage cost model (paper Table V):\n");
  std::printf("  page cache : %.3f s\n", compute);
  const double ssd_io = tpsl::SimulatedIoSeconds(io, tpsl::kSsdProfile);
  std::printf("  SSD        : %.3f s (+%.0f%%)\n", compute + ssd_io,
              100.0 * ssd_io / compute);
  const double hdd_io = tpsl::SimulatedIoSeconds(io, tpsl::kHddProfile);
  std::printf("  HDD        : %.3f s (+%.0f%%)\n", compute + hdd_io,
              100.0 * hdd_io / compute);

  std::remove(path.c_str());
  return 0;
}
