#ifndef TPSL_INGEST_PREFETCHING_EDGE_STREAM_H_
#define TPSL_INGEST_PREFETCHING_EDGE_STREAM_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/edge_stream.h"
#include "graph/types.h"
#include "util/status.h"

namespace tpsl {
namespace ingest {

/// Double-buffered, background-thread reader over any EdgeStream.
///
/// A worker thread keeps pulling batches from the inner stream into
/// two fixed buffers while the consumer drains the other one, so disk
/// I/O overlaps partitioning compute — the out-of-core configuration
/// the paper's linear-run-time claim depends on. Memory footprint is
/// exactly two buffers of `buffer_edges` edges, independent of graph
/// size.
///
/// Composes with the rest of the stream stack: it is an EdgeStream, so
/// it can wrap a BinaryFileEdgeStream, and its Io() forwards that
/// file's byte account (the input to SimulatedIoSeconds).
///
/// Reset() stops the worker, resets the inner stream, and restarts
/// prefetching — each pass re-reads the file, matching the paper's
/// dropped-page-cache discipline. Inner-stream failures (see
/// EdgeStream::Health) surface through Health() here.
///
/// Thread model: Next()/Reset()/Health() must be called from one
/// consumer thread; the worker is internal.
class PrefetchingEdgeStream : public EdgeStream {
 public:
  explicit PrefetchingEdgeStream(std::unique_ptr<EdgeStream> inner,
                                 size_t buffer_edges = 256 * 1024);
  ~PrefetchingEdgeStream() override;

  PrefetchingEdgeStream(const PrefetchingEdgeStream&) = delete;
  PrefetchingEdgeStream& operator=(const PrefetchingEdgeStream&) = delete;

  Status Reset() override;
  size_t Next(Edge* out, size_t capacity) override;
  uint64_t NumEdgesHint() const override { return inner_->NumEdgesHint(); }
  Status Health() const override;

  /// Forwards the inner stream's on-disk byte account (compressed
  /// bytes for block-compressed files). While a pass is in flight the
  /// inner stream is worker-owned, so the consumer sees the snapshot
  /// taken when the last fully drained slot was filled — consistent
  /// with what has been delivered, at slot granularity. Once the pass
  /// completes the account is exact.
  StreamIoStats Io() const override;

 private:
  /// One of the two ping-pong slots. `filled` is valid edges in
  /// `edges`; `ready` flips producer -> consumer, `consumed` back.
  struct Slot {
    std::vector<Edge> edges;
    size_t filled = 0;
    bool ready = false;
    /// Inner Io() snapshot taken when the slot was filled.
    StreamIoStats inner_io;
  };

  void StartWorker();
  void StopWorker();
  void WorkerLoop();

  std::unique_ptr<EdgeStream> inner_;
  const size_t buffer_edges_;

  Slot slots_[2];
  mutable std::mutex mutex_;
  std::condition_variable slot_ready_cv_;    // worker -> consumer
  std::condition_variable slot_free_cv_;     // consumer -> worker
  bool producer_done_ = false;  // worker hit EOF (or error) this pass
  bool stop_ = false;           // tells the worker to exit
  Status worker_status_;        // inner Health captured at pass end
  std::thread worker_;
  bool worker_running_ = false;

  // Consumer-side cursor into the slot currently being drained.
  size_t consume_slot_ = 0;
  size_t consume_pos_ = 0;
  bool consumer_holds_slot_ = false;

  /// Number of Reset() calls (≈ passes started), reported by Io().
  uint64_t passes_ = 0;
  /// Inner Io() as of the last slot the consumer fully drained.
  StreamIoStats drained_inner_io_;
};

/// Opens a dataset file for a streaming pass: io::OpenEdgeFile's
/// reader, with a raw file wrapped in this prefetching reader so its
/// freads overlap compute. A compressed file keeps the thread-free
/// mmap reader, whose blocks a parallel pass decodes in its workers.
StatusOr<std::unique_ptr<EdgeStream>> OpenDatasetStream(
    const std::string& path);

}  // namespace ingest
}  // namespace tpsl

#endif  // TPSL_INGEST_PREFETCHING_EDGE_STREAM_H_
