#include "exec/parallel_for_edges.h"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>
#include <vector>

namespace tpsl {
namespace exec {
namespace {

Status StatusFromCurrentException() {
  try {
    throw;
  } catch (const std::exception& e) {
    return Status::Internal(std::string("worker task threw: ") + e.what());
  } catch (...) {
    return Status::Internal("worker task threw a non-std exception");
  }
}

/// The sequential path: no pool, no buffers beyond one, batches
/// processed in stream order on the calling thread.
Status InlineForEdges(EdgeStream& stream, uint32_t batch_size,
                      const EdgeBatchFn& fn) {
  TPSL_RETURN_IF_ERROR(stream.Reset());
  std::vector<Edge> buffer(batch_size);
  size_t n;
  while ((n = stream.Next(buffer.data(), buffer.size())) > 0) {
    Status status;
    try {
      status = fn(buffer.data(), n);
    } catch (...) {
      status = StatusFromCurrentException();
    }
    TPSL_RETURN_IF_ERROR(status);
  }
  return stream.Health();
}

}  // namespace

Status ParallelForEdges(EdgeStream& stream, const ExecContext& exec,
                        const EdgeBatchFn& fn) {
  if (exec.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  const uint32_t workers = exec.Workers();
  if (workers <= 1) {
    return InlineForEdges(stream, exec.batch_size, fn);
  }

  TPSL_RETURN_IF_ERROR(stream.Reset());

  // Compressed block streams skip the Next() funnel: the reader hands
  // out encoded blocks (a pointer into the mapped file, no copy) and
  // each worker decodes its block into its own buffer. Same edges;
  // threads=1 equivalence is kept by the inline path above.
  auto* blocks = dynamic_cast<BlockEdgeStream*>(&stream);
  const size_t buffer_edges =
      blocks != nullptr ? blocks->MaxBlockEdges() : exec.batch_size;

  // One reusable buffer per in-flight batch. The free list doubles as
  // the in-flight bound: the reader blocks when all buffers are out.
  std::vector<std::vector<Edge>> buffers(workers,
                                         std::vector<Edge>(buffer_edges));
  std::mutex mutex;
  std::condition_variable buffer_free_cv;
  std::vector<uint32_t> free_ids;
  free_ids.reserve(workers);
  for (uint32_t id = 0; id < workers; ++id) {
    free_ids.push_back(id);
  }
  Status first_error;  // latched by whichever worker fails first

  TaskGroup group(exec.pool_or_global());
  for (;;) {
    uint32_t id;
    {
      std::unique_lock<std::mutex> lock(mutex);
      buffer_free_cv.wait(lock, [&] { return !free_ids.empty(); });
      if (!first_error.ok()) {
        break;  // stop dispatching; in-flight batches drain below
      }
      id = free_ids.back();
      free_ids.pop_back();
    }
    // A batch is an encoded block the worker decodes into buffers[id],
    // or a Next() fill of it.
    BlockEdgeStream::EncodedBlock block;
    size_t n = 0;
    if (blocks != nullptr) {
      n = blocks->NextEncodedBlock(&block) ? block.num_edges : 0;
    } else {
      n = stream.Next(buffers[id].data(), buffers[id].size());
    }
    if (n == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      free_ids.push_back(id);
      break;
    }
    group.Submit([&, id, n, block]() {
      Status status;
      if (blocks != nullptr) {
        status = blocks->DecodeBlock(block, buffers[id].data());
      }
      if (status.ok()) {
        try {
          status = fn(buffers[id].data(), n);
        } catch (...) {
          status = StatusFromCurrentException();
        }
      }
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (!status.ok() && first_error.ok()) {
          first_error = std::move(status);
        }
        free_ids.push_back(id);
      }
      buffer_free_cv.notify_one();
    });
  }
  group.Wait();

  if (!first_error.ok()) {
    return first_error;
  }
  return stream.Health();
}

}  // namespace exec
}  // namespace tpsl
