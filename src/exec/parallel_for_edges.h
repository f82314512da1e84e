#ifndef TPSL_EXEC_PARALLEL_FOR_EDGES_H_
#define TPSL_EXEC_PARALLEL_FOR_EDGES_H_

#include <cstdint>
#include <functional>

#include "exec/exec_context.h"
#include "graph/edge_stream.h"
#include "util/status.h"

namespace tpsl {
namespace exec {

/// The per-batch worker callback: `edges[0..count)` is one batch, valid
/// for the duration of the call. Called concurrently from pool threads
/// (once per batch, no two calls share a batch); a non-OK return stops
/// the driver from dispatching further batches and is returned from
/// ParallelForEdges. Exceptions are caught and converted to an
/// internal-error Status.
using EdgeBatchFn = std::function<Status(const Edge* edges, size_t count)>;

/// One full pass over `stream`, fanned out to `exec`'s pool in batches
/// — the shared stream driver under the parallel partitioners.
///
/// The calling thread is the single reader: it Reset()s the stream and
/// pulls batches in order. A batch is either a Next() fill of
/// `exec.batch_size` edges, or — for a BlockEdgeStream such as the
/// mmap reader — one encoded block that the worker decodes itself, so
/// decompression scales with the worker count instead of serializing
/// on the reader. At most ExecContext::Workers() batches are in
/// flight, each in its own buffer, so memory is O(workers × batch)
/// regardless of stream length.
///
/// Error handling mirrors EdgeStream's sticky-Health contract: a
/// stream failing mid-pass looks like a short EOF to the reader, so
/// after the pass the stream's Health() is checked and returned.
/// Worker Status failures (the callback's, or a block's decode) are
/// latched first-wins and win over Health.
///
/// With one effective worker the pool is bypassed entirely: batches
/// come from Next() and are processed inline, in stream order —
/// bit-deterministic, which the threads=1 partitioners rely on.
Status ParallelForEdges(EdgeStream& stream, const ExecContext& exec,
                        const EdgeBatchFn& fn);

}  // namespace exec
}  // namespace tpsl

#endif  // TPSL_EXEC_PARALLEL_FOR_EDGES_H_
