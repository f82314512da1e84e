#ifndef TPSL_SERVE_PARTITION_SERVICE_H_
#define TPSL_SERVE_PARTITION_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "dynamic/incremental_partitioner.h"
#include "exec/thread_pool.h"
#include "graph/edge_stream.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "serve/edge_ledger.h"
#include "serve/serving_table.h"
#include "util/status.h"

namespace tpsl {
namespace serve {

/// Long-lived serving engine over the incremental partitioner — the
/// OSRM-style split: expensive re-partitioning stays offline, cheap
/// incremental "customization" keeps the serving tables fresh.
///
/// Concurrency model (single writer, many wait-free readers):
///  * One writer thread drives Bootstrap/AddEdge/RemoveEdge/Flush.
///    Mutations batch through the IncrementalPartitioner; every
///    `publish_batch_edges` mutations the writer publishes a new
///    epoch: a delta-patched ServingTable (copy-on-write chunks) is
///    swapped in behind one atomic pointer.
///  * Readers (one Reader handle per thread) pin the current epoch in
///    a private slot, load the table pointer, and run plain loads over
///    immutable data. No locks, no reference counting on the hot path
///    — a lookup never blocks on the writer, including while a
///    re-bootstrap is in flight.
///  * Reclamation is epoch-based: the writer retires superseded
///    snapshots and frees one only after every pinned reader epoch has
///    advanced past it.
///
/// Writer state: `edge_log_` holds every placed occurrence in
/// placement order and `placed_` its partition, kInvalidPartition once
/// removed. The EdgeLedger maps each edge to the log positions of its
/// live occurrences, newest on top. A removal frees the newest
/// occurrence's partition (LIFO) but kills the oldest position: the
/// partitions shift one position newer along the edge's chain. So the
/// live positions are always what compaction keeps (each removed edge
/// skips its earliest occurrences), and their partitions are what a
/// LIFO stack of placements would hold.
///
/// When StalenessRatio() crosses `rebootstrap_threshold`, the writer
/// forks a compacted copy of the live edge log (one sequential filter
/// over `placed_`) and re-bootstraps a fresh partitioner on the exec
/// ThreadPool while continuing to serve and mutate the old state. The
/// job returns one partition per compacted edge. Adoption scatters
/// them into a fresh `placed_` at the positions live at the fork and
/// replays the interim mutations, each at the log positions it touched
/// when it happened; the log and the ledger stay as they are. It then
/// publishes a fully rebuilt snapshot without ever dropping reads.
/// Only when dead log entries outnumber live ones at adoption does the
/// writer drop them and renumber the ledger's positions.
class PartitionService {
 public:
  struct Options {
    /// Mutations per epoch publish. Smaller = fresher reads, more
    /// chunk cloning.
    uint32_t publish_batch_edges = 256;

    /// StalenessRatio() trigger for the offline re-bootstrap.
    /// kNeverRebootstrap disables it.
    double rebootstrap_threshold = 0.5;

    /// Adopts a re-bootstrap exactly this many publishes after its
    /// fork, blocking the writer at that boundary if the job is still
    /// running. This keeps the full placement sequence deterministic,
    /// which the gated benchmark scenarios rely on. 0 is read as 1.
    uint32_t adopt_after_publishes = 4;

    /// Reader slot capacity (one slot per live Reader handle).
    uint32_t max_readers = 64;

    /// Pool for the background re-bootstrap; null = ThreadPool::Global().
    exec::ThreadPool* pool = nullptr;
  };

  static constexpr double kNeverRebootstrap =
      std::numeric_limits<double>::infinity();

  struct Stats {
    uint64_t epoch = 0;
    uint64_t epochs_published = 0;
    uint64_t rebootstraps = 0;
    uint64_t mutations = 0;
    uint64_t live_edges = 0;
    uint64_t live_snapshots = 0;  // current + retired-but-still-pinned
    double staleness_ratio = 0.0;
    double replication_factor = 0.0;
    uint64_t max_load = 0;
    uint64_t state_bytes = 0;  // writer state + current snapshot
  };

  /// Wait-free lookup handle. One Reader per thread; a Reader is NOT
  /// thread-safe, and every Reader must be destroyed before the
  /// service. Lookups are served from the most recently published
  /// epoch visible to this thread.
  class Reader {
   public:
    ~Reader();
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;

    VertexLookup LookupVertex(VertexId v) const;
    PartitionId RouteEdge(const Edge& e) const;

   private:
    friend class PartitionService;
    Reader(PartitionService* service, uint32_t slot)
        : service_(service), slot_(slot) {}

    const ServingTable* Pin() const;
    void Unpin() const;

    PartitionService* service_;
    uint32_t slot_;
  };

  explicit PartitionService(const PartitionConfig& config)
      : PartitionService(config, Options()) {}
  PartitionService(const PartitionConfig& config, Options options);
  ~PartitionService();

  PartitionService(const PartitionService&) = delete;
  PartitionService& operator=(const PartitionService&) = delete;

  /// Runs the full 2PS-L bootstrap over the base graph, records every
  /// placement in the edge log and the serving ledger, and publishes
  /// epoch 1. At most 2^32 - 1 placements fit the log.
  Status Bootstrap(EdgeStream& base_graph);

  /// Places one new edge and returns its partition. Self-loops and
  /// sentinel vertex ids are rejected without mutating state, and so is
  /// any add once the edge log holds 2^32 - 1 entries (OutOfRange).
  StatusOr<PartitionId> AddEdge(const Edge& edge);

  /// Removes one live occurrence of `edge` (the most recently placed
  /// one, so duplicate edges resolve deterministically), releasing its
  /// load slot. NotFound if no live occurrence exists.
  Status RemoveEdge(const Edge& edge);

  /// Exact placement of a live edge from the writer-side ledger (the
  /// most recently placed occurrence). Unlike Reader::RouteEdge this
  /// takes the writer lock — for admin/debug paths, not the hot path.
  StatusOr<PartitionId> LookupPlacement(const Edge& edge) const;

  /// Publishes any pending mutations and, if a re-bootstrap is in
  /// flight, waits for it and adopts it. After Flush() the current
  /// snapshot reflects every mutation.
  Status Flush();

  /// Allocates a reader slot. FailedPrecondition before Bootstrap(),
  /// OutOfRange beyond max_readers.
  StatusOr<std::unique_ptr<Reader>> CreateReader();

  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  bool RebootstrapInFlight() const {
    return job_active_.load(std::memory_order_acquire);
  }

  Stats GetStats() const;

  /// Writer-state introspection for tests; callers must guarantee the
  /// writer is quiescent (no concurrent mutations).
  const IncrementalPartitioner& partitioner_for_test() const {
    return *partitioner_;
  }
  std::shared_ptr<const ServingTable> CurrentSnapshot() const;

 private:
  static constexpr uint64_t kIdleSlot = ~uint64_t{0};

  struct alignas(64) ReaderSlot {
    std::atomic<uint64_t> pinned{kIdleSlot};
  };

  /// One mutation made while a re-bootstrap runs, with the log
  /// positions it touched: an add its own position, a removal its
  /// edge's live positions (newest first) as they were when it
  /// happened. The positions are replay_positions_[begin, begin+count).
  struct ReplayOp {
    bool add = false;
    Edge edge;
    uint32_t begin = 0;
    uint32_t count = 0;
  };

  /// Background re-bootstrap: a fresh partitioner over the compacted
  /// live edge log, built off-thread while the writer keeps serving.
  struct RebootstrapJob {
    std::mutex mutex;
    std::condition_variable done_cv;
    bool done = false;
    Status status = Status::OK();
    std::unique_ptr<IncrementalPartitioner> partitioner;
    std::vector<Edge> base_edges;  // compacted log; the job consumes it
    std::vector<PartitionId> partitions;  // one per compacted edge
    double fork_to_done_seconds = 0.0;
  };

  /// Appends every bootstrap placement's partition and, when given
  /// one, its edge to logs in placement order.
  class LogSink;

  void InstallTableLocked(std::shared_ptr<const ServingTable> table);
  Status MaybePublishLocked();
  Status PublishLocked();
  void ReclaimLocked();
  void MaybeForkRebootstrapLocked();
  /// Adopts the finished (or awaited) job and publishes, or drops it.
  Status AdoptRebootstrapLocked();
  /// Waits for `job`, then installs its partitioner and a `placed_`
  /// rebuilt from its placements and the replay. On failure the writer
  /// state is untouched.
  Status ReplayRebootstrapLocked(RebootstrapJob& job);
  /// Drops dead log entries and renumbers the ledger's positions.
  void RenumberLogLocked();
  void RecordMutationLocked(const Edge& edge, bool add,
                            const uint32_t* positions, size_t count);
  uint64_t WriterStateBytesLocked() const;

  PartitionConfig config_;
  Options options_;

  // --- Reader-visible state (atomics; see class comment for the
  // seq_cst pin/publish/scan protocol). ---
  std::atomic<uint64_t> epoch_{0};
  std::atomic<const ServingTable*> table_{nullptr};
  std::unique_ptr<ReaderSlot[]> slots_;
  std::atomic<bool> job_active_{false};

  mutable std::mutex reader_mutex_;  // slot allocation only
  std::vector<bool> slot_used_;

  // --- Writer state (writer_mutex_). ---
  mutable std::mutex writer_mutex_;
  std::unique_ptr<IncrementalPartitioner> partitioner_;
  std::vector<Edge> edge_log_;        // placement order, removals kept
  std::vector<PartitionId> placed_;   // per log position; dead = invalid
  EdgeLedger placements_;             // edge -> live log positions
  std::vector<uint32_t> chain_;       // RemoveEdge scratch
  std::vector<VertexId> dirty_;
  uint32_t pending_mutations_ = 0;
  uint64_t mutations_ = 0;
  uint64_t epochs_published_ = 0;
  uint64_t rebootstraps_done_ = 0;
  std::vector<std::shared_ptr<const ServingTable>> snapshots_;  // back=current
  std::shared_ptr<RebootstrapJob> job_;
  uint64_t publishes_since_fork_ = 0;
  std::vector<uint32_t> fork_positions_;  // live at the fork, in order
  std::vector<ReplayOp> replay_log_;
  std::vector<uint32_t> replay_positions_;

  // --- Cached obs handles (registry-owned; see src/obs/). ---
  obs::Counter* lookups_counter_;
  obs::Counter* mutations_counter_;
  obs::Counter* publishes_counter_;
  obs::Counter* rebootstraps_counter_;
  obs::Histogram* mutation_hist_;
  obs::Histogram* publish_hist_;
  obs::Histogram* rebootstrap_hist_;
  obs::Histogram* adopt_wait_hist_;
  obs::Histogram* fork_hist_;
  obs::Gauge* epoch_gauge_;
  obs::Gauge* epoch_lag_gauge_;
  obs::Gauge* snapshot_bytes_gauge_;
  obs::Gauge* retired_snapshots_gauge_;
  obs::Gauge* staleness_gauge_;
  obs::Gauge* live_edges_gauge_;
};

}  // namespace serve
}  // namespace tpsl

#endif  // TPSL_SERVE_PARTITION_SERVICE_H_
