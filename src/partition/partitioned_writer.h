#ifndef TPSL_PARTITION_PARTITIONED_WRITER_H_
#define TPSL_PARTITION_PARTITIONED_WRITER_H_

#include <string>
#include <vector>

#include "io/compressed_edge_writer.h"
#include "partition/assignment_sink.h"
#include "util/status.h"

namespace tpsl {

/// Streams edge assignments straight to one compressed edge-block file
/// per partition (io/edge_block_format.h) — the paper's write-back
/// step ("writes back the partitioned graph data to storage") without
/// materializing the partitions in memory, and without paying
/// full-width I/O for them either. Files are named
/// `<prefix>.part<id>.bin`; Finish() seals each file with its trailer,
/// closes it, and writes a plain-text manifest `<prefix>.manifest`
/// with per-partition edge counts.
///
/// The files go through one io::CompressedEdgeWriter with spill-sized
/// blocks (io::kSpillBlockEdges): Assign() only appends the edge to its
/// partition's raw block, and the writer's background thread hashes,
/// encodes and writes full blocks.
///
/// Every fwrite/fclose result is checked; the first failure (e.g. a
/// full disk) latches into sticky Health(), further assignments are
/// dropped, and Finish() reports the error — a spill that lost edges
/// can never look like a successful run.
class PartitionedWriter : public AssignmentSink {
 public:
  /// Opens `num_partitions` output files. Check status() before use.
  PartitionedWriter(const std::string& prefix, uint32_t num_partitions);

  /// Non-OK if any file failed to open or a write failed so far.
  Status status() const { return Health(); }

  /// Sticky spill health (open/write/close failures, including those
  /// observed on the background writer thread).
  Status Health() const override { return files_.Health(); }

  void Assign(const Edge& edge, PartitionId partition) override {
    files_.Append(partition, &edge, 1);
  }

  /// Flushes tail blocks, seals every file with its trailer, closes
  /// them and writes the manifest. Must be called exactly once;
  /// returns the terminal status.
  Status Finish();

  /// Path of partition p's file.
  std::string PartitionPath(PartitionId p) const;

  /// Edges assigned to each partition.
  std::vector<uint64_t> edge_counts() const;

  /// Compressed bytes streamed to disk (headers, blocks and trailers) —
  /// the bytes the device actually saw. Final only after Finish().
  uint64_t bytes_written() const { return files_.bytes_written(); }

  /// The writer's resident state: one stdio buffer and one raw block
  /// per partition plus the writer's block pool and encode buffer —
  /// O(k), independent of |E|. Part of the whole-run state accounting
  /// when the writer is the spill sink.
  uint64_t StateBytes() const override { return files_.StateBytes(); }

 private:
  const std::string prefix_;
  const uint32_t num_partitions_;
  io::CompressedEdgeWriter files_;
};

}  // namespace tpsl

#endif  // TPSL_PARTITION_PARTITIONED_WRITER_H_
