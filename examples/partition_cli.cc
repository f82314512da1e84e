// Command-line partitioner: the paper's deployment workflow as a tool.
// Reads a graph from a binary (.bin) or ASCII (.txt) edge list,
// partitions it out-of-core with the selected algorithm, writes one
// compressed edge-block file per partition plus a manifest, and prints
// the quality report.
//
// Usage:
//   partition_cli <input> <output-prefix> [--partitioner=2PS-L] [--k=32]
//                 [--alpha=1.05] [--seed=42] [--demo]
// With --demo (or no arguments), a synthetic graph is generated and
// staged to a temporary file first, so the binary is runnable anywhere.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "baselines/registry.h"
#include "graph/generators.h"
#include "graph/text_edge_list.h"
#include "io/edge_file.h"
#include "partition/partitioned_writer.h"
#include "partition/partitioner.h"
#include "util/timer.h"

namespace {

struct CliOptions {
  std::string input;
  std::string output_prefix = "/tmp/tpsl_cli";
  std::string partitioner = "2PS-L";
  uint32_t k = 32;
  double alpha = 1.05;
  uint64_t seed = 42;
  bool demo = false;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

CliOptions ParseArgs(int argc, char** argv) {
  CliOptions options;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--demo") == 0) {
      options.demo = true;
    } else if (ParseFlag(argv[i], "--partitioner", &value)) {
      options.partitioner = value;
    } else if (ParseFlag(argv[i], "--k", &value)) {
      options.k = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--alpha", &value)) {
      options.alpha = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (positional == 0) {
      options.input = argv[i];
      ++positional;
    } else if (positional == 1) {
      options.output_prefix = argv[i];
      ++positional;
    }
  }
  if (options.input.empty()) {
    options.demo = true;
  }
  return options;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options = ParseArgs(argc, argv);

  if (options.demo) {
    std::printf("demo mode: staging a synthetic social graph\n");
    tpsl::SocialNetworkConfig config;
    config.num_vertices = 1 << 14;
    config.seed = options.seed;
    // Derive from the output prefix rather than a fixed /tmp name, so runs
    // with distinct prefixes (e.g. parallel ctest) don't truncate each
    // other's staged file. Bare runs share the default prefix and outputs.
    options.input = options.output_prefix + ".demo.bin";
    const tpsl::Status staged = tpsl::io::WriteEdgeFile(
        options.input, tpsl::GenerateSocialNetwork(config),
        tpsl::io::EdgeFileFormat::kCompressedBlocks);
    if (!staged.ok()) {
      std::fprintf(stderr, "cannot stage demo graph: %s\n",
                   staged.ToString().c_str());
      return 1;
    }
  }

  // Text inputs are converted to a staged binary file so that the
  // partitioning itself always runs out-of-core over the binary format.
  if (EndsWith(options.input, ".txt")) {
    auto edges = tpsl::ReadTextEdgeList(options.input);
    if (!edges.ok()) {
      std::fprintf(stderr, "%s\n", edges.status().ToString().c_str());
      return 1;
    }
    const std::string staged = options.output_prefix + ".staged.bin";
    const tpsl::Status stage_status = tpsl::io::WriteEdgeFile(
        staged, *edges, tpsl::io::EdgeFileFormat::kCompressedBlocks);
    if (!stage_status.ok()) {
      std::fprintf(stderr, "cannot stage %s: %s\n", staged.c_str(),
                   stage_status.ToString().c_str());
      return 1;
    }
    options.input = staged;
  }

  // Sniffs the format: raw u32-pair files and compressed block files
  // both work here.
  auto stream = tpsl::io::OpenEdgeFile(options.input);
  if (!stream.ok()) {
    std::fprintf(stderr, "%s\n", stream.status().ToString().c_str());
    return 1;
  }
  auto partitioner = tpsl::MakePartitioner(options.partitioner);
  if (!partitioner.ok()) {
    std::fprintf(stderr, "%s\n", partitioner.status().ToString().c_str());
    return 1;
  }

  tpsl::PartitionConfig config;
  config.num_partitions = options.k;
  config.balance_factor = options.alpha;
  config.seed = options.seed;

  tpsl::PartitionedWriter writer(options.output_prefix, options.k);
  if (!writer.status().ok()) {
    std::fprintf(stderr, "%s\n", writer.status().ToString().c_str());
    return 1;
  }

  std::printf("partitioning %s (%llu edges) with %s into k=%u parts\n",
              options.input.c_str(),
              static_cast<unsigned long long>((*stream)->NumEdgesHint()),
              options.partitioner.c_str(), options.k);
  tpsl::WallTimer timer;
  tpsl::PartitionStats stats;
  const tpsl::Status status =
      (*partitioner)->Partition(**stream, config, writer, &stats);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  const tpsl::Status finish_status = writer.Finish();
  if (!finish_status.ok()) {
    std::fprintf(stderr, "write-back failed: %s\n",
                 finish_status.ToString().c_str());
    return 1;
  }

  uint64_t max_load = 0, total = 0;
  for (const uint64_t count : writer.edge_counts()) {
    max_load = std::max(max_load, count);
    total += count;
  }
  std::printf("done in %.3f s (%u stream passes, %.1f MiB state)\n",
              timer.ElapsedSeconds(), stats.stream_passes,
              static_cast<double>(stats.state_bytes) / (1 << 20));
  std::printf("balance: max %llu of avg %.0f edges (alpha=%.3f)\n",
              static_cast<unsigned long long>(max_load),
              static_cast<double>(total) / options.k,
              static_cast<double>(max_load) * options.k /
                  static_cast<double>(total));
  std::printf("outputs: %s.part<0..%u>.bin + %s.manifest\n",
              options.output_prefix.c_str(), options.k - 1,
              options.output_prefix.c_str());
  return 0;
}
