#ifndef TPSL_PARTITION_SINK_PIPELINE_H_
#define TPSL_PARTITION_SINK_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "graph/types.h"
#include "partition/assignment_sink.h"
#include "partition/dense_bitset.h"
#include "partition/metrics.h"
#include "util/status.h"

namespace tpsl {

/// Computes PartitionQuality online, one assignment at a time, at any
/// thread count, and never from an edge list — the streaming
/// replacement for running ComputeQuality over materialized partitions.
/// ComputeQuality stays as the independent test oracle.
///
/// The sink always counts per-partition edge loads itself, so
/// validation never rests on the partitioner's own load counters.
/// Replicas come from one `v2p` matrix per run: a partitioner that
/// lends its own (LendReplicas; 2PS-L and 2PS-HDRF do) is read, and
/// the sink then holds loads only, O(k) per shard. For every other
/// partitioner (DBH, Hash, Grid, ...) each shard keeps its own
/// vertex-major bit matrix, O(|V|·k / 8), merged at the end.
///
/// Each AssignBatch call leases one shard (spinning over a fixed pool
/// of try-locks), absorbs the whole batch into it, and releases it — no
/// shared mutable word is ever touched by two threads at once, so a
/// parallel scoring pass never serializes on quality bookkeeping. With
/// one shard (threads=1) the lease is always free.
///
/// Exactness: a replication bit is idempotent and a load is a sum, so
/// the merged state is independent of which shard saw which edge and
/// of arrival order. Quality() computes total replicas as the matrix
/// popcount and covered vertices as its count of non-empty rows, then
/// derives the rest through QualityFromTallies, ComputeQuality's own
/// arithmetic, so the two agree to the last bit (the property suites
/// assert exact equality).
class ShardedQualitySink : public AssignmentSink {
 public:
  /// Each time a shard has absorbed another 2^kSampleIntervalLog2
  /// assignments it emits the running replication factor and max-load
  /// skew as trace counter events — quality convergence over the
  /// stream. Only while tracing: with tracing off the sink does no
  /// sampling work.
  static constexpr uint32_t kSampleIntervalLog2 = 16;

  ShardedQualitySink(uint32_t num_partitions, uint32_t num_shards);

  void Assign(const Edge& edge, PartitionId partition) override {
    const Assignment one{edge, partition};
    AssignBatch(&one, 1);
  }

  /// An edge touching kInvalidVertex is skipped (its row would lie past
  /// the addressable matrix) and latches InvalidArgument in Health().
  void AssignBatch(const Assignment* batch, size_t count) override;

  bool ConcurrentSafe() const override { return true; }

  /// While a matrix is lent the shards set no replica bits. Taking it
  /// back (nullptr) counts its replicas and covered vertices once, so
  /// Quality() no longer needs it.
  void LendReplicas(const DenseBitset* replicas) override;

  /// Merged per-partition loads, O(k·shards). Not thread-safe against
  /// concurrent AssignBatch calls: call after the pass ends.
  std::vector<uint64_t> Loads() const;

  /// Merged quality over everything assigned so far. Without a lent
  /// matrix, folds shards 1..n-1 into shard 0 in place, so one shard is
  /// read without a copy. Not thread-safe against concurrent
  /// AssignBatch calls: call after the pass ends and any lent matrix
  /// was taken back.
  PartitionQuality Quality();

  Status Health() const override;

  uint64_t StateBytes() const override;

 private:
  /// One worker's private slice of the loads and, unless a matrix is
  /// lent, of the replication state. The bitset is vertex-major like
  /// ReplicationTable (row v = k bits at v*k), grown lazily, so the
  /// merge is a straight word-wise OR.
  struct Shard {
    std::atomic<bool> in_use{false};
    DenseBitset bits;
    std::vector<uint64_t> loads;
    VertexId num_vertices = 0;
    uint64_t assigned = 0;  // counted only while tracing
  };

  /// Σ_v replicas(v) and the vertices with at least one replica.
  struct ReplicaTallies {
    uint64_t replicas = 0;
    uint64_t covered = 0;
  };

  /// Emits the running quality as counter events. With a lent matrix
  /// it reads the matrix by relaxed loads and each shard's loads under
  /// that shard's lease, one at a time, while the workers go on.
  /// Otherwise it takes every shard's lease in index order (so
  /// concurrent samplers cannot deadlock), folds the bit shards and
  /// releases the leases.
  void SampleQuality();

  const uint32_t num_partitions_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> saw_invalid_vertex_{false};
  // Set by the lender before its passes start and cleared after they
  // end; the pool's task handoff orders both against the workers.
  const DenseBitset* lent_ = nullptr;
  std::optional<ReplicaTallies> lent_tallies_;  // taken at release
};

/// Decouples a parallel scoring pass from sequential sink consumers
/// (spill writers, materialization) with a bounded handoff queue:
/// producers enqueue assignment chunks from any thread; a dedicated
/// drainer thread delivers them downstream one chunk at a time, so
/// the downstream sinks keep their single-threaded contract
/// while their work overlaps the scoring pass instead of serializing
/// it. Back-pressure: when the queue is full, producers block until
/// the drainer frees a slot, bounding memory at O(queue × chunk).
///
/// Finish() flushes the queue and joins the drainer; the runner calls
/// it before reading any downstream state (spill manifests,
/// materialized partitions). The destructor also joins, so an error
/// return that skips Finish() cannot leak the thread. A lent replica
/// matrix is not forwarded: the queued consumers never read replicas.
class AsyncHandoffSink : public AssignmentSink {
 public:
  /// `downstream` must outlive the sink; `max_queued_chunks` bounds
  /// the handoff queue (chunks are one AssignBatch call each).
  explicit AsyncHandoffSink(AssignmentSink* downstream,
                            size_t max_queued_chunks = 64);
  ~AsyncHandoffSink() override;

  void Assign(const Edge& edge, PartitionId partition) override {
    const Assignment one{edge, partition};
    AssignBatch(&one, 1);
  }

  void AssignBatch(const Assignment* batch, size_t count) override;

  bool ConcurrentSafe() const override { return true; }

  /// Drains everything enqueued so far into the downstream sink and
  /// stops the drainer thread. Idempotent; after Finish() the
  /// downstream state is complete and safe to read single-threaded.
  void Finish();

  /// Downstream failures propagate through the handoff: the drainer
  /// re-checks the downstream's Health() after every delivered chunk
  /// and latches the first error here, so a producer polling mid-pass
  /// (or the runner after the pass) sees a spill-writer failure even
  /// though delivery happens on another thread. When no drainer is in
  /// flight the downstream is quiescent and is queried directly.
  Status Health() const override;

  uint64_t StateBytes() const override;

 private:
  void DrainLoop();

  AssignmentSink* const downstream_;
  const size_t max_queued_chunks_;

  mutable std::mutex mutex_;
  Status health_;  // first downstream error seen by the drainer
  std::condition_variable producer_cv_;  // queue has space
  std::condition_variable drainer_cv_;   // queue has work (or stop)
  std::deque<std::vector<Assignment>> queue_;
  bool stop_ = false;
  bool started_ = false;
  std::thread drainer_;
};

}  // namespace tpsl

#endif  // TPSL_PARTITION_SINK_PIPELINE_H_
