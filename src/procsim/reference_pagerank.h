#ifndef TPSL_PROCSIM_REFERENCE_PAGERANK_H_
#define TPSL_PROCSIM_REFERENCE_PAGERANK_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace tpsl {

/// Single-machine PageRank on an undirected graph (each edge treated
/// as two directed edges, so a self-loop counts twice), used as the
/// correctness oracle for the distributed processing simulator. It
/// sums along the edge list, sharing no code with the partitioners:
///   pr'[v] = (1 - damping)/N + damping · Σ_{u ∈ N(v)} pr[u]/deg(u).
/// Runs a fixed number of power iterations (the paper's workload is
/// static PageRank with 100 iterations).
struct PageRankConfig {
  uint32_t iterations = 100;
  double damping = 0.85;
};

/// `num_vertices` must exceed every vertex id in `edges`.
std::vector<double> ReferencePageRank(const std::vector<Edge>& edges,
                                      VertexId num_vertices,
                                      const PageRankConfig& config);

}  // namespace tpsl

#endif  // TPSL_PROCSIM_REFERENCE_PAGERANK_H_
