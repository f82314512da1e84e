#include "procsim/reference_pagerank.h"

#include <algorithm>

namespace tpsl {

std::vector<double> ReferencePageRank(const std::vector<Edge>& edges,
                                      VertexId num_vertices,
                                      const PageRankConfig& config) {
  const VertexId n = num_vertices;
  if (n == 0) {
    return {};
  }
  std::vector<uint32_t> degree(n, 0);
  for (const Edge& e : edges) {
    ++degree[e.first];
    ++degree[e.second];
  }
  std::vector<double> rank(n, 1.0 / n);
  std::vector<double> next(n, 0.0);
  const double base = (1.0 - config.damping) / n;

  for (uint32_t iter = 0; iter < config.iterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (const Edge& e : edges) {
      next[e.second] += rank[e.first] / degree[e.first];
      next[e.first] += rank[e.second] / degree[e.second];
    }
    for (VertexId v = 0; v < n; ++v) {
      rank[v] = base + config.damping * next[v];
    }
  }
  return rank;
}

}  // namespace tpsl
