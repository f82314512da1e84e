#ifndef TPSL_PARTITION_ASSIGNMENT_SINK_H_
#define TPSL_PARTITION_ASSIGNMENT_SINK_H_

#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace tpsl {

class ReplicaMatrix;

/// One (edge -> partition) decision, the unit of the batched sink
/// protocol below.
struct Assignment {
  Edge edge;
  PartitionId partition;
};

/// Receives the (edge -> partition) decisions of a partitioner as they
/// are made. Mirrors the paper's implementation note: the partitioner
/// "writes back the partitioned graph data to storage" — a sink is the
/// seam where that write-back (or any consumer) plugs in.
///
/// Sinks compose into a pipeline: the runner fans one assignment out to
/// several sinks through a TeeSink (quality, validation, spill-to-disk,
/// optional in-memory materialization), so measurement never forces
/// edge-set materialization.
///
/// Delivery is single-caller by contract: a partitioner calls its sink
/// from one thread at a time (a parallel pass serializes its workers'
/// batches under one mutex), so no sink needs to be safe under
/// concurrent calls.
class AssignmentSink {
 public:
  virtual ~AssignmentSink() = default;

  virtual void Assign(const Edge& edge, PartitionId partition) = 0;

  /// Batched variant: one scored batch delivered in one virtual call,
  /// so a parallel scoring pass amortizes the dispatch and the lock.
  /// Default forwards per edge, preserving Assign()'s exact semantics
  /// and ordering.
  virtual void AssignBatch(const Assignment* batch, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      Assign(batch[i].edge, batch[i].partition);
    }
  }

  /// Bytes of heap memory this sink holds. Feeds the whole-run
  /// state-bytes accounting (paper Fig. 4 memory column): partitioner
  /// state alone under-reports a run whose sinks keep replication
  /// bitsets or writer buffers alive.
  virtual uint64_t StateBytes() const { return 0; }

  /// Lends the partitioner's own replica matrix (`v2p`, k bits per
  /// vertex) for the rest of its run, or takes it back with nullptr. A
  /// lender sets exactly both endpoints' bits of every edge it assigns
  /// and no others, lends before its first assignment and takes the
  /// matrix back before it is freed: use the LentReplicas guard below.
  /// A sink that would otherwise build the same matrix reads the lent
  /// one. Default: ignored.
  virtual void LendReplicas(const ReplicaMatrix* /*replicas*/) {}

  /// Sticky sink health. Assign()/AssignBatch() have no error channel
  /// (scoring cannot abort mid-batch), so sinks that can fail — a
  /// spill writer hitting a full disk, a quality sink handed an invalid
  /// vertex id — latch the first failure here. The runner checks
  /// every pipeline sink after the pass; a run whose spill silently
  /// dropped edges must not report success.
  virtual Status Health() const { return Status::OK(); }
};

/// Lends `replicas` to `sink` for the guard's lifetime, so a run holds
/// one matrix. Declared after the matrix, it takes the matrix back on
/// every return path before the matrix dies.
class LentReplicas {
 public:
  LentReplicas(AssignmentSink& sink, const ReplicaMatrix& replicas)
      : sink_(sink) {
    sink_.LendReplicas(&replicas);
  }
  ~LentReplicas() { sink_.LendReplicas(nullptr); }

  LentReplicas(const LentReplicas&) = delete;
  LentReplicas& operator=(const LentReplicas&) = delete;

 private:
  AssignmentSink& sink_;
};

/// Counts edges per partition; the cheapest sink for quality metrics.
class CountingSink : public AssignmentSink {
 public:
  explicit CountingSink(uint32_t num_partitions) : loads_(num_partitions, 0) {}

  void Assign(const Edge& /*edge*/, PartitionId partition) override {
    ++loads_[partition];
  }

  const std::vector<uint64_t>& loads() const { return loads_; }

  uint64_t total() const {
    uint64_t sum = 0;
    for (uint64_t load : loads_) sum += load;
    return sum;
  }

  uint64_t StateBytes() const override {
    return loads_.capacity() * sizeof(uint64_t);
  }

 private:
  std::vector<uint64_t> loads_;
};

/// Materializes per-partition edge lists; used by the distributed
/// processing simulator and by partitioned-output writers. Costs
/// O(|E|) memory — the runner only adds it to the pipeline when the
/// caller explicitly opts in (RunOptions::keep_partitions).
class EdgeListSink : public AssignmentSink {
 public:
  explicit EdgeListSink(uint32_t num_partitions) : partitions_(num_partitions) {}

  void Assign(const Edge& edge, PartitionId partition) override {
    partitions_[partition].push_back(edge);
  }

  const std::vector<std::vector<Edge>>& partitions() const {
    return partitions_;
  }

  /// Moves the materialized partitions out; the sink is empty after.
  std::vector<std::vector<Edge>> TakePartitions() {
    return std::move(partitions_);
  }

  uint64_t StateBytes() const override {
    uint64_t bytes = partitions_.capacity() * sizeof(std::vector<Edge>);
    for (const std::vector<Edge>& part : partitions_) {
      bytes += part.capacity() * sizeof(Edge);
    }
    return bytes;
  }

 private:
  std::vector<std::vector<Edge>> partitions_;
};

/// Fans one assignment out to any number of sinks, in order. The
/// runner's pipeline hub: quality, validation, spill and optional
/// materialization all hang off one TeeSink.
class TeeSink : public AssignmentSink {
 public:
  TeeSink() = default;
  explicit TeeSink(std::vector<AssignmentSink*> sinks)
      : sinks_(std::move(sinks)) {}
  TeeSink(std::initializer_list<AssignmentSink*> sinks) : sinks_(sinks) {}

  void Add(AssignmentSink* sink) { sinks_.push_back(sink); }

  void Assign(const Edge& edge, PartitionId partition) override {
    for (AssignmentSink* sink : sinks_) {
      sink->Assign(edge, partition);
    }
  }

  void AssignBatch(const Assignment* batch, size_t count) override {
    for (AssignmentSink* sink : sinks_) {
      sink->AssignBatch(batch, count);
    }
  }

  void LendReplicas(const ReplicaMatrix* replicas) override {
    for (AssignmentSink* sink : sinks_) {
      sink->LendReplicas(replicas);
    }
  }

  /// Sum over the attached sinks (the tee itself holds only pointers).
  uint64_t StateBytes() const override {
    uint64_t bytes = sinks_.capacity() * sizeof(AssignmentSink*);
    for (const AssignmentSink* sink : sinks_) {
      bytes += sink->StateBytes();
    }
    return bytes;
  }

  /// First non-OK child wins (delivery order, same as Assign()).
  Status Health() const override {
    for (const AssignmentSink* sink : sinks_) {
      Status status = sink->Health();
      if (!status.ok()) {
        return status;
      }
    }
    return Status::OK();
  }

  size_t num_sinks() const { return sinks_.size(); }

 private:
  std::vector<AssignmentSink*> sinks_;
};

}  // namespace tpsl

#endif  // TPSL_PARTITION_ASSIGNMENT_SINK_H_
