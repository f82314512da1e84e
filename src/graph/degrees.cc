#include "graph/degrees.h"

#include <algorithm>
#include <string>

namespace tpsl {

StatusOr<DegreeTable> ComputeDegrees(EdgeStream& stream) {
  DegreeTable table;
  bool saw_invalid = false;
  Status status = ForEachEdge(stream, [&](const Edge& e) {
    const VertexId hi = std::max(e.first, e.second);
    if (hi >= table.degrees.size()) {
      if (hi == kInvalidVertex) {
        // 2^32 slots here, and a 2^32-row replication matrix after.
        saw_invalid = true;
        return;
      }
      table.degrees.resize(static_cast<size_t>(hi) + 1, 0);
    }
    ++table.degrees[e.first];
    ++table.degrees[e.second];
    ++table.num_edges;
  });
  if (!status.ok()) {
    return status;
  }
  if (saw_invalid) {
    return Status::InvalidArgument(
        "edge endpoint " + std::to_string(kInvalidVertex) +
        " is the reserved invalid vertex id");
  }
  return table;
}

}  // namespace tpsl
