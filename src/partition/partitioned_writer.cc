#include "partition/partitioned_writer.h"

#include <cstdio>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tpsl {

namespace {

obs::Counter* SpillBytesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Default().GetCounter("spill.bytes_written");
  return counter;
}

obs::Histogram* SpillFlushHist() {
  static obs::Histogram* hist = obs::MetricsRegistry::Default().GetHistogram(
      "spill.flush_seconds");
  return hist;
}

std::string PartFilePath(const std::string& prefix, PartitionId p) {
  return prefix + ".part" + std::to_string(p) + ".bin";
}

std::vector<std::string> PartFilePaths(const std::string& prefix,
                                       uint32_t num_partitions) {
  std::vector<std::string> paths;
  for (PartitionId p = 0; p < num_partitions; ++p) {
    paths.push_back(PartFilePath(prefix, p));
  }
  return paths;
}

}  // namespace

PartitionedWriter::PartitionedWriter(const std::string& prefix,
                                     uint32_t num_partitions)
    : prefix_(prefix),
      num_partitions_(num_partitions),
      files_(PartFilePaths(prefix, num_partitions), io::kSpillBlockEdges) {}

std::string PartitionedWriter::PartitionPath(PartitionId p) const {
  return PartFilePath(prefix_, p);
}

std::vector<uint64_t> PartitionedWriter::edge_counts() const {
  std::vector<uint64_t> counts(num_partitions_);
  for (PartitionId p = 0; p < num_partitions_; ++p) {
    counts[p] = files_.edges_written(p);
  }
  return counts;
}

Status PartitionedWriter::Finish() {
  if (files_.finished()) {
    return Status::FailedPrecondition("Finish() called twice");
  }
  obs::TraceSpan span("spill.finish", "sink");
  // One spill.flush_seconds sample per file: its seal+close latency,
  // the write-back tail the paper's out-of-core loop pays after the
  // last edge is assigned.
  Status status = files_.Finish(SpillFlushHist());
  SpillBytesCounter()->Add(files_.bytes_written());
  if (!status.ok()) {
    return status;
  }
  const std::string manifest_path = prefix_ + ".manifest";
  std::FILE* manifest = std::fopen(manifest_path.c_str(), "w");
  if (manifest == nullptr) {
    return Status::IoError("cannot open " + manifest_path);
  }
  std::fprintf(manifest, "partitions %u\n", num_partitions_);
  std::fprintf(manifest, "format blocks1\n");
  for (PartitionId p = 0; p < num_partitions_; ++p) {
    std::fprintf(manifest, "part %u edges %llu file %s\n", p,
                 static_cast<unsigned long long>(files_.edges_written(p)),
                 PartitionPath(p).c_str());
  }
  if (std::fclose(manifest) != 0) {
    return Status::IoError("close failed for " + manifest_path);
  }
  return Status::OK();
}

}  // namespace tpsl
