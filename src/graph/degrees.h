#ifndef TPSL_GRAPH_DEGREES_H_
#define TPSL_GRAPH_DEGREES_H_

#include <cstdint>
#include <vector>

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
StatusOr<DegreeTable> ComputeDegrees(EdgeStream& stream);

}  // namespace tpsl

#endif  // TPSL_GRAPH_DEGREES_H_
