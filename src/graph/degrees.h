#ifndef TPSL_GRAPH_DEGREES_H_
#define TPSL_GRAPH_DEGREES_H_

#include <cstdint>
#include <vector>

#include "exec/exec_context.h"
#include "graph/edge_stream.h"
#include "graph/types.h"
#include "util/status.h"

namespace tpsl {

/// Vertex-degree table computed in one streaming pass — the "degree
/// calculation" preprocessing step of 2PS-L (paper §III-A2, Fig. 5).
/// Degrees count edge endpoints, so a self-loop contributes 2 to its
/// vertex.
struct DegreeTable {
  std::vector<uint32_t> degrees;  // indexed by VertexId
  uint64_t num_edges = 0;

  /// Number of vertex slots (max seen id + 1).
  VertexId num_vertices() const {
    return static_cast<VertexId>(degrees.size());
  }

  uint32_t degree(VertexId v) const { return degrees[v]; }

  /// Sum of all degrees; equals 2·|E| (the total "volume" of the graph
  /// as used by the clustering phase).
  uint64_t TotalVolume() const { return 2 * num_edges; }
};

/// Streams `stream` once, counting per-vertex degrees. The table grows
/// to the maximum vertex id observed. An edge touching kInvalidVertex
/// fails the pass with InvalidArgument instead of sizing the table to
/// 2^32 slots.
///
/// With one worker (`exec.Workers() <= 1`) the pass is a plain loop on
/// the calling thread. With W > 1 it is one exec::ParallelForEdges pass,
/// so workers also decode the blocks: each in-flight batch counts into
/// one of W private uint8_t tables and, when it ends, folds 256 per
/// counter wrap into the shared table; the residues are added after the
/// pass. Degrees are exact sums, so the table is identical at every
/// thread count. Memory: |V| * 4 bytes; at W > 1 also |V| * W while
/// the pass runs, and |V| * 4 while the result is copied out.
StatusOr<DegreeTable> ComputeDegrees(EdgeStream& stream,
                                     const exec::ExecContext& exec = {});

}  // namespace tpsl

#endif  // TPSL_GRAPH_DEGREES_H_
