#include "ingest/prefetching_edge_stream.h"

#include <cstring>
#include <utility>

#include "io/edge_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace tpsl {
namespace ingest {

namespace {

// Reader instrumentation: was the next buffer ready when the consumer
// arrived (hit) or did compute outrun I/O (miss + stall time), and how
// long the producer sat blocked on a full ring. All per-slot (256K
// edges by default), so the cost is invisible next to the memcpy.
obs::Counter* PrefetchHits() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Default().GetCounter("ingest.prefetch_hit");
  return counter;
}

obs::Counter* PrefetchMisses() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Default().GetCounter("ingest.prefetch_miss");
  return counter;
}

obs::Counter* EdgesPrefetched() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Default().GetCounter("ingest.edges_prefetched");
  return counter;
}

obs::Histogram* ConsumerWaitHist() {
  static obs::Histogram* hist = obs::MetricsRegistry::Default().GetHistogram(
      "ingest.consumer_wait_seconds");
  return hist;
}

obs::Histogram* ProducerWaitHist() {
  static obs::Histogram* hist = obs::MetricsRegistry::Default().GetHistogram(
      "ingest.producer_wait_seconds");
  return hist;
}

}  // namespace

PrefetchingEdgeStream::PrefetchingEdgeStream(
    std::unique_ptr<EdgeStream> inner, size_t buffer_edges)
    : inner_(std::move(inner)), buffer_edges_(buffer_edges) {
  TPSL_CHECK(inner_ != nullptr);
  TPSL_CHECK(buffer_edges_ > 0);
  slots_[0].edges.resize(buffer_edges_);
  slots_[1].edges.resize(buffer_edges_);
}

PrefetchingEdgeStream::~PrefetchingEdgeStream() { StopWorker(); }

void PrefetchingEdgeStream::StartWorker() {
  worker_ = std::thread(&PrefetchingEdgeStream::WorkerLoop, this);
  worker_running_ = true;
}

void PrefetchingEdgeStream::StopWorker() {
  if (!worker_running_) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  slot_free_cv_.notify_all();
  slot_ready_cv_.notify_all();
  worker_.join();
  stop_ = false;
  worker_running_ = false;
}

void PrefetchingEdgeStream::WorkerLoop() {
  size_t produce_slot = 0;
  bool eof = false;
  while (!eof) {
    Slot& slot = slots_[produce_slot];
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!stop_ && slot.ready) {
        // Both buffers full: compute is the bottleneck here. Record how
        // long the producer sat blocked.
        const int64_t wait_start_ns = obs::TraceNowNanos();
        slot_free_cv_.wait(lock, [&] { return stop_ || !slot.ready; });
        ProducerWaitHist()->RecordNanos(
            static_cast<uint64_t>(obs::TraceNowNanos() - wait_start_ns));
      }
      if (stop_) {
        return;
      }
    }
    // Fill outside the lock: the consumer never touches a slot that is
    // not ready, and the inner stream is worker-owned during a pass.
    size_t filled = 0;
    {
      obs::TraceSpan span("ingest.fill", "ingest");
      while (filled < buffer_edges_) {
        const size_t n = inner_->Next(slot.edges.data() + filled,
                                      buffer_edges_ - filled);
        if (n == 0) {
          eof = true;
          break;
        }
        filled += n;
      }
    }
    EdgesPrefetched()->Add(filled);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      slot.filled = filled;
      slot.ready = true;
      slot.inner_io = inner_->Io();
      if (eof) {
        producer_done_ = true;
        // An inner failure looks like EOF (Next() == 0); capture its
        // sticky health here so the consumer can tell the difference.
        worker_status_ = inner_->Health();
      }
    }
    slot_ready_cv_.notify_all();
    produce_slot ^= 1;
  }
}

Status PrefetchingEdgeStream::Reset() {
  StopWorker();
  for (Slot& slot : slots_) {
    slot.filled = 0;
    slot.ready = false;
  }
  producer_done_ = false;
  worker_status_ = Status::OK();
  consume_slot_ = 0;
  consume_pos_ = 0;
  consumer_holds_slot_ = false;
  drained_inner_io_.disk_bytes_this_pass = 0;
  passes_ += 1;
  TPSL_RETURN_IF_ERROR(inner_->Reset());
  StartWorker();
  return Status::OK();
}

size_t PrefetchingEdgeStream::Next(Edge* out, size_t capacity) {
  if (!worker_running_) {
    // First use without a Reset(): the inner stream is still at its
    // start, so just begin prefetching.
    StartWorker();
  }
  size_t delivered = 0;
  while (delivered < capacity) {
    if (!consumer_holds_slot_) {
      std::unique_lock<std::mutex> lock(mutex_);
      Slot& slot = slots_[consume_slot_];
      if (slot.ready) {
        PrefetchHits()->Increment();
      } else if (!producer_done_) {
        // Compute outran the disk: this wait is the ingest stall the
        // paper's overlap design exists to hide.
        PrefetchMisses()->Increment();
        const int64_t wait_start_ns = obs::TraceNowNanos();
        slot_ready_cv_.wait(lock,
                            [&] { return slot.ready || producer_done_; });
        const int64_t wait_ns = obs::TraceNowNanos() - wait_start_ns;
        ConsumerWaitHist()->RecordNanos(static_cast<uint64_t>(wait_ns));
        obs::EmitComplete("ingest.stall", "ingest", wait_start_ns, wait_ns);
      }
      if (!slot.ready) {
        break;  // producer finished and this slot was never filled
      }
      consumer_holds_slot_ = true;
      consume_pos_ = 0;
    }
    Slot& slot = slots_[consume_slot_];
    const size_t available = slot.filled - consume_pos_;
    if (available == 0) {
      // Hand the drained slot back and move to the other one.
      bool done;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        slot.ready = false;
        slot.filled = 0;
        drained_inner_io_ = slot.inner_io;
        done = producer_done_;
      }
      slot_free_cv_.notify_all();
      consumer_holds_slot_ = false;
      consume_slot_ ^= 1;
      if (done && slot.filled == 0 && !slots_[consume_slot_].ready) {
        // Fast path out: producer is done and nothing is pending.
        break;
      }
      continue;
    }
    const size_t n = std::min(capacity - delivered, available);
    std::memcpy(out + delivered, slot.edges.data() + consume_pos_,
                n * sizeof(Edge));
    consume_pos_ += n;
    delivered += n;
  }
  return delivered;
}

StreamIoStats PrefetchingEdgeStream::Io() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StreamIoStats io;
  if (!worker_running_ || producer_done_) {
    // No fill in flight (idle, or the pass hit EOF): the inner stream
    // is quiescent, read the exact account.
    io = inner_->Io();
  } else {
    io = drained_inner_io_;
  }
  io.passes = passes_;
  return io;
}

Status PrefetchingEdgeStream::Health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!worker_status_.ok()) {
    return worker_status_;
  }
  if (!worker_running_) {
    // No pass in flight: the inner stream is safe to inspect directly.
    return inner_->Health();
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<EdgeStream>> OpenDatasetStream(
    const std::string& path) {
  TPSL_ASSIGN_OR_RETURN(const io::EdgeFileFormat format,
                        io::SniffEdgeFileFormat(path));
  TPSL_ASSIGN_OR_RETURN(std::unique_ptr<EdgeStream> stream,
                        io::OpenEdgeFile(path));
  if (format == io::EdgeFileFormat::kRaw) {
    return std::unique_ptr<EdgeStream>(
        std::make_unique<PrefetchingEdgeStream>(std::move(stream)));
  }
  return stream;
}

}  // namespace ingest
}  // namespace tpsl
