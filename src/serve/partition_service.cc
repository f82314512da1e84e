#include "serve/partition_service.h"

#include <algorithm>
#include <utility>

#include "graph/in_memory_edge_stream.h"
#include "partition/assignment_sink.h"
#include "util/prefetch.h"
#include "util/timer.h"

namespace tpsl {
namespace serve {

namespace {

/// Log positions are the ledger's uint32 values, which exclude kNone.
constexpr size_t kMaxLogPositions = EdgeLedger::kNone;

/// Frees the newest of an edge's live occurrences under the LIFO rule
/// and kills the oldest position, which earliest-first compaction
/// skips: partitions shift one position newer along `chain` (the
/// edge's live positions, newest first) and the oldest turns dead.
void ShiftOutOldest(std::vector<PartitionId>& placed, const uint32_t* chain,
                    size_t count) {
  for (size_t i = 0; i + 1 < count; ++i) {
    placed[chain[i]] = placed[chain[i + 1]];
  }
  placed[chain[count - 1]] = kInvalidPartition;
}

}  // namespace

class PartitionService::LogSink : public AssignmentSink {
 public:
  LogSink(std::vector<PartitionId>* partitions, std::vector<Edge>* edges)
      : partitions_(partitions), edges_(edges) {}

  void Assign(const Edge& edge, PartitionId partition) override {
    partitions_->push_back(partition);
    if (edges_ != nullptr) {
      edges_->push_back(edge);
    }
  }

 private:
  std::vector<PartitionId>* partitions_;
  std::vector<Edge>* edges_;
};

PartitionService::PartitionService(const PartitionConfig& config,
                                   Options options)
    : config_(config), options_(options) {
  if (options_.max_readers == 0) {
    options_.max_readers = 1;
  }
  if (options_.publish_batch_edges == 0) {
    options_.publish_batch_edges = 1;
  }
  if (options_.adopt_after_publishes == 0) {
    options_.adopt_after_publishes = 1;
  }
  partitioner_ = std::make_unique<IncrementalPartitioner>(config_);
  slots_ = std::make_unique<ReaderSlot[]>(options_.max_readers);
  slot_used_.assign(options_.max_readers, false);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  lookups_counter_ = registry.GetCounter("serve.lookups");
  mutations_counter_ = registry.GetCounter("serve.mutations");
  publishes_counter_ = registry.GetCounter("serve.publishes");
  rebootstraps_counter_ = registry.GetCounter("serve.rebootstraps");
  mutation_hist_ = registry.GetHistogram("serve.mutation_seconds");
  publish_hist_ = registry.GetHistogram("serve.publish_seconds");
  rebootstrap_hist_ = registry.GetHistogram("serve.rebootstrap_seconds");
  adopt_wait_hist_ = registry.GetHistogram("serve.adopt_wait_seconds");
  fork_hist_ = registry.GetHistogram("serve.fork_seconds");
  epoch_gauge_ = registry.GetGauge("serve.epoch");
  epoch_lag_gauge_ = registry.GetGauge("serve.epoch_lag");
  snapshot_bytes_gauge_ = registry.GetGauge("serve.snapshot_bytes");
  retired_snapshots_gauge_ = registry.GetGauge("serve.retired_snapshots");
  staleness_gauge_ = registry.GetGauge("serve.staleness_ratio");
  live_edges_gauge_ = registry.GetGauge("serve.live_edges");
}

PartitionService::~PartitionService() {
  // Drain an in-flight re-bootstrap: the job owns copies of everything
  // it touches, but letting it finish keeps teardown ordered and the
  // pool free of work referencing freed obs handles. Never adopt here.
  std::shared_ptr<RebootstrapJob> job;
  {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    job = job_;
  }
  if (job != nullptr) {
    std::unique_lock<std::mutex> jl(job->mutex);
    job->done_cv.wait(jl, [&] { return job->done; });
  }
}

Status PartitionService::Bootstrap(EdgeStream& base_graph) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (!snapshots_.empty()) {
    return Status::FailedPrecondition("Bootstrap() called twice");
  }
  edge_log_.reserve(base_graph.NumEdgesHint());
  placed_.reserve(base_graph.NumEdgesHint());
  LogSink sink(&placed_, &edge_log_);
  TPSL_RETURN_IF_ERROR(partitioner_->Bootstrap(base_graph, sink));
  if (edge_log_.size() > kMaxLogPositions) {
    return Status::OutOfRange("base graph exceeds the edge log's positions");
  }
  // Build the ledger after scoring, in one pass, rather than inserting
  // at random from inside the scoring loop. Each edge's home slot is
  // prefetched a few edges ahead.
  placements_.Reserve(edge_log_.size());
  uint32_t pos = 0;
  ForEachStaged(
      edge_log_.data(), edge_log_.size(), NoPrefetch(),
      [&] [[gnu::always_inline]] (const Edge& e) { placements_.Prefetch(e); },
      [&](const Edge& e) { placements_.Push(e, pos++); });
  InstallTableLocked(BuildServingTable(*partitioner_, 1));
  ++epochs_published_;
  publishes_counter_->Increment();
  return Status::OK();
}

StatusOr<PartitionId> PartitionService::AddEdge(const Edge& edge) {
  WallTimer timer;
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (snapshots_.empty()) {
    return Status::FailedPrecondition("AddEdge() before Bootstrap()");
  }
  if (edge_log_.size() >= kMaxLogPositions) {
    return Status::OutOfRange("edge log positions exhausted");
  }
  StatusOr<PartitionId> placed = partitioner_->AddEdge(edge);
  if (!placed.ok()) {
    return placed;
  }
  const auto pos = static_cast<uint32_t>(edge_log_.size());
  edge_log_.push_back(edge);
  placed_.push_back(*placed);
  placements_.Push(edge, pos);
  RecordMutationLocked(edge, /*add=*/true, &pos, 1);
  dirty_.push_back(edge.first);
  dirty_.push_back(edge.second);
  TPSL_RETURN_IF_ERROR(MaybePublishLocked());
  mutation_hist_->RecordSeconds(timer.ElapsedSeconds());
  return placed;
}

Status PartitionService::RemoveEdge(const Edge& edge) {
  WallTimer timer;
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (snapshots_.empty()) {
    return Status::FailedPrecondition("RemoveEdge() before Bootstrap()");
  }
  chain_.clear();
  placements_.ForEachValue(edge, [&](uint32_t pos) { chain_.push_back(pos); });
  if (chain_.empty()) {
    return Status::NotFound("edge has no live placement");
  }
  TPSL_RETURN_IF_ERROR(partitioner_->RemoveEdge(edge, placed_[chain_[0]]));
  ShiftOutOldest(placed_, chain_.data(), chain_.size());
  placements_.PopOldest(edge);
  RecordMutationLocked(edge, /*add=*/false, chain_.data(), chain_.size());
  // Replica bits shrink lazily, so no serving rows are dirtied — the
  // next publish refreshes loads and the live edge count.
  TPSL_RETURN_IF_ERROR(MaybePublishLocked());
  mutation_hist_->RecordSeconds(timer.ElapsedSeconds());
  return Status::OK();
}

StatusOr<PartitionId> PartitionService::LookupPlacement(
    const Edge& edge) const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  const uint32_t pos = placements_.Top(edge);
  if (pos == EdgeLedger::kNone) {
    return Status::NotFound("edge has no live placement");
  }
  return placed_[pos];
}

Status PartitionService::Flush() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (snapshots_.empty()) {
    return Status::FailedPrecondition("Flush() before Bootstrap()");
  }
  if (job_ != nullptr) {
    return AdoptRebootstrapLocked();
  }
  if (pending_mutations_ > 0 || !dirty_.empty()) {
    return PublishLocked();
  }
  return Status::OK();
}

void PartitionService::RecordMutationLocked(const Edge& edge, bool add,
                                            const uint32_t* positions,
                                            size_t count) {
  ++mutations_;
  ++pending_mutations_;
  mutations_counter_->Increment();
  if (job_ != nullptr) {
    replay_log_.push_back(
        ReplayOp{add, edge, static_cast<uint32_t>(replay_positions_.size()),
                 static_cast<uint32_t>(count)});
    replay_positions_.insert(replay_positions_.end(), positions,
                             positions + count);
  }
}

Status PartitionService::MaybePublishLocked() {
  if (pending_mutations_ >= options_.publish_batch_edges) {
    return PublishLocked();
  }
  return Status::OK();
}

Status PartitionService::PublishLocked() {
  WallTimer timer;
  std::sort(dirty_.begin(), dirty_.end());
  dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
  InstallTableLocked(PatchServingTable(snapshots_.back(), *partitioner_,
                                       dirty_,
                                       epoch_.load(std::memory_order_relaxed) +
                                           1));
  dirty_.clear();
  pending_mutations_ = 0;
  ++epochs_published_;
  publishes_counter_->Increment();
  publish_hist_->RecordSeconds(timer.ElapsedSeconds());

  if (job_ != nullptr) {
    if (++publishes_since_fork_ >= options_.adopt_after_publishes) {
      return AdoptRebootstrapLocked();
    }
  } else {
    MaybeForkRebootstrapLocked();
  }
  return Status::OK();
}

void PartitionService::InstallTableLocked(
    std::shared_ptr<const ServingTable> table) {
  const ServingTable* raw = table.get();
  snapshots_.push_back(std::move(table));
  // Publish order matters: the table pointer must be visible before the
  // epoch that names it, so a reader that pins epoch e always loads a
  // table with epoch >= e (all four accesses are seq_cst; see Pin()).
  table_.store(raw, std::memory_order_seq_cst);
  epoch_.store(raw->epoch(), std::memory_order_seq_cst);
  ReclaimLocked();
  epoch_gauge_->Set(static_cast<double>(raw->epoch()));
  snapshot_bytes_gauge_->Set(static_cast<double>(raw->HeapBytes()));
  live_edges_gauge_->Set(static_cast<double>(raw->live_edges()));
  staleness_gauge_->Set(partitioner_->StalenessRatio());
}

void PartitionService::ReclaimLocked() {
  const uint64_t current = epoch_.load(std::memory_order_relaxed);
  uint64_t min_pinned = kIdleSlot;
  for (uint32_t i = 0; i < options_.max_readers; ++i) {
    const uint64_t pinned = slots_[i].pinned.load(std::memory_order_seq_cst);
    min_pinned = std::min(min_pinned, pinned);
  }
  const uint64_t bound = std::min(min_pinned, current);
  // snapshots_ is epoch-ordered; drop every snapshot no pinned reader
  // can still reach. The current table (epoch == current) always stays.
  size_t keep_from = 0;
  while (keep_from < snapshots_.size() &&
         snapshots_[keep_from]->epoch() < bound) {
    ++keep_from;
  }
  if (keep_from > 0) {
    snapshots_.erase(snapshots_.begin(),
                     snapshots_.begin() + static_cast<ptrdiff_t>(keep_from));
  }
  epoch_lag_gauge_->Set(
      min_pinned == kIdleSlot || min_pinned > current
          ? 0.0
          : static_cast<double>(current - min_pinned));
  retired_snapshots_gauge_->Set(static_cast<double>(snapshots_.size() - 1));
}

void PartitionService::MaybeForkRebootstrapLocked() {
  if (options_.rebootstrap_threshold == kNeverRebootstrap ||
      partitioner_->StalenessRatio() <= options_.rebootstrap_threshold) {
    return;
  }
  WallTimer timer;
  auto job = std::make_shared<RebootstrapJob>();
  // The compacted log is the live entries of the edge log, in placement
  // order; it becomes the stream the fresh partitioner bootstraps on.
  job->base_edges.reserve(partitioner_->num_edges());
  fork_positions_.reserve(partitioner_->num_edges());
  for (size_t pos = 0; pos < placed_.size(); ++pos) {
    if (placed_[pos] != kInvalidPartition) {
      job->base_edges.push_back(edge_log_[pos]);
      fork_positions_.push_back(static_cast<uint32_t>(pos));
    }
  }
  publishes_since_fork_ = 0;
  job_ = job;
  job_active_.store(true, std::memory_order_release);

  exec::ThreadPool* pool =
      options_.pool != nullptr ? options_.pool : &exec::ThreadPool::Global();
  const PartitionConfig config = config_;
  // Submitted without a TaskGroup: the job reports through job->status
  // and must not throw.
  pool->Submit([job, config] {
    WallTimer job_timer;
    auto partitioner = std::make_unique<IncrementalPartitioner>(config);
    std::vector<PartitionId> partitions;
    Status status;
    {
      InMemoryEdgeStream stream(std::move(job->base_edges));
      partitions.reserve(stream.NumEdgesHint());
      LogSink sink(&partitions, /*edges=*/nullptr);
      status = partitioner->Bootstrap(stream, sink);
    }
    std::lock_guard<std::mutex> jl(job->mutex);
    job->status = status;
    job->partitioner = std::move(partitioner);
    job->partitions = std::move(partitions);
    job->fork_to_done_seconds = job_timer.ElapsedSeconds();
    job->done = true;
    job->done_cv.notify_all();
  });
  fork_hist_->RecordSeconds(timer.ElapsedSeconds());
}

Status PartitionService::AdoptRebootstrapLocked() {
  const Status status = ReplayRebootstrapLocked(*job_);
  // Adopted or not, the job is over. A failed one leaves the old state
  // serving; the drift that triggered the fork is still there, so a
  // later publish will retry.
  job_.reset();
  fork_positions_ = {};
  replay_log_.clear();
  replay_positions_.clear();
  job_active_.store(false, std::memory_order_release);
  TPSL_RETURN_IF_ERROR(status);

  ++rebootstraps_done_;
  rebootstraps_counter_->Increment();
  // The adopted state replaces every row, so publish a full rebuild.
  InstallTableLocked(BuildServingTable(
      *partitioner_, epoch_.load(std::memory_order_relaxed) + 1));
  ++epochs_published_;
  publishes_counter_->Increment();
  return Status::OK();
}

Status PartitionService::ReplayRebootstrapLocked(RebootstrapJob& job) {
  WallTimer wait;
  {
    std::unique_lock<std::mutex> jl(job.mutex);
    job.done_cv.wait(jl, [&] { return job.done; });
  }
  adopt_wait_hist_->RecordSeconds(wait.ElapsedSeconds());
  TPSL_RETURN_IF_ERROR(job.status);
  rebootstrap_hist_->RecordSeconds(job.fork_to_done_seconds);
  if (job.partitions.size() != fork_positions_.size()) {
    return Status::Internal("re-bootstrap placed a different edge count");
  }

  // A bootstrap places its stream in order, so the job's i-th partition
  // belongs to the i-th position live at the fork. Positions added
  // since are filled by the replay.
  std::vector<PartitionId> placed(placed_.size(), kInvalidPartition);
  for (size_t i = 0; i < fork_positions_.size(); ++i) {
    placed[fork_positions_[i]] = job.partitions[i];
  }
  IncrementalPartitioner& partitioner = *job.partitioner;
  for (const ReplayOp& op : replay_log_) {
    const uint32_t* positions = replay_positions_.data() + op.begin;
    if (op.add) {
      StatusOr<PartitionId> added = partitioner.AddEdge(op.edge);
      if (!added.ok()) {
        return Status::Internal("re-bootstrap replay rejected an add: " +
                                added.status().message());
      }
      placed[positions[0]] = *added;
    } else {
      const PartitionId partition = placed[positions[0]];
      if (partition == kInvalidPartition) {
        return Status::Internal("re-bootstrap replay lost a removal target");
      }
      TPSL_RETURN_IF_ERROR(partitioner.RemoveEdge(op.edge, partition));
      ShiftOutOldest(placed, positions, op.count);
    }
  }

  partitioner_ = std::move(job.partitioner);
  placed_ = std::move(placed);
  dirty_.clear();
  pending_mutations_ = 0;
  if (placed_.size() - placements_.size() > placements_.size()) {
    RenumberLogLocked();
  }
  return Status::OK();
}

void PartitionService::RenumberLogLocked() {
  // Drops the dead entries; live ones keep their order, so the
  // position map is monotone and every ledger stack keeps its order.
  std::vector<uint32_t> renumbered(placed_.size());
  uint32_t live = 0;
  for (size_t pos = 0; pos < placed_.size(); ++pos) {
    renumbered[pos] = live;
    if (placed_[pos] != kInvalidPartition) {
      edge_log_[live] = edge_log_[pos];
      placed_[live] = placed_[pos];
      ++live;
    }
  }
  edge_log_.resize(live);
  placed_.resize(live);
  placements_.RemapValues([&](uint32_t pos) { return renumbered[pos]; });
}

StatusOr<std::unique_ptr<PartitionService::Reader>>
PartitionService::CreateReader() {
  if (table_.load(std::memory_order_acquire) == nullptr) {
    return Status::FailedPrecondition("CreateReader() before Bootstrap()");
  }
  std::lock_guard<std::mutex> lock(reader_mutex_);
  for (uint32_t i = 0; i < options_.max_readers; ++i) {
    if (!slot_used_[i]) {
      slot_used_[i] = true;
      slots_[i].pinned.store(kIdleSlot, std::memory_order_release);
      return std::unique_ptr<Reader>(new Reader(this, i));
    }
  }
  return Status::OutOfRange("all reader slots in use (max_readers=" +
                            std::to_string(options_.max_readers) + ")");
}

PartitionService::Reader::~Reader() {
  std::lock_guard<std::mutex> lock(service_->reader_mutex_);
  service_->slots_[slot_].pinned.store(kIdleSlot, std::memory_order_release);
  service_->slot_used_[slot_] = false;
}

const ServingTable* PartitionService::Reader::Pin() const {
  ReaderSlot& slot = service_->slots_[slot_];
  // seq_cst protocol: (1) read the epoch, (2) publish it in our slot,
  // (3) load the table. In the seq_cst total order our table load
  // follows the store of whichever table the epoch read named, so the
  // table we get is never older than the epoch we pinned; and the
  // writer's reclaim scan either sees our pin (and keeps the table) or
  // precedes it (in which case we load the even-newer current table).
  slot.pinned.store(service_->epoch_.load(std::memory_order_seq_cst),
                    std::memory_order_seq_cst);
  return service_->table_.load(std::memory_order_seq_cst);
}

void PartitionService::Reader::Unpin() const {
  service_->slots_[slot_].pinned.store(kIdleSlot, std::memory_order_release);
}

VertexLookup PartitionService::Reader::LookupVertex(VertexId v) const {
  const ServingTable* table = Pin();
  const VertexLookup result = table->LookupVertex(v);
  Unpin();
  service_->lookups_counter_->Increment();
  return result;
}

PartitionId PartitionService::Reader::RouteEdge(const Edge& e) const {
  const ServingTable* table = Pin();
  const PartitionId result = table->RouteEdge(e);
  Unpin();
  service_->lookups_counter_->Increment();
  return result;
}

uint64_t PartitionService::WriterStateBytesLocked() const {
  return partitioner_->StateBytes() + edge_log_.capacity() * sizeof(Edge) +
         placed_.capacity() * sizeof(PartitionId) + placements_.HeapBytes() +
         (snapshots_.empty() ? 0 : snapshots_.back()->HeapBytes());
}

PartitionService::Stats PartitionService::GetStats() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  Stats stats;
  stats.epoch = epoch_.load(std::memory_order_relaxed);
  stats.epochs_published = epochs_published_;
  stats.rebootstraps = rebootstraps_done_;
  stats.mutations = mutations_;
  stats.live_edges = partitioner_->num_edges();
  stats.live_snapshots = snapshots_.size();
  stats.staleness_ratio = partitioner_->StalenessRatio();
  stats.replication_factor = partitioner_->CurrentReplicationFactor();
  for (const uint64_t load : partitioner_->loads()) {
    stats.max_load = std::max(stats.max_load, load);
  }
  stats.state_bytes = WriterStateBytesLocked();
  return stats;
}

std::shared_ptr<const ServingTable> PartitionService::CurrentSnapshot() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return snapshots_.empty() ? nullptr : snapshots_.back();
}

}  // namespace serve
}  // namespace tpsl
