#include "baselines/multilevel.h"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "util/random.h"
#include "util/timer.h"

namespace tpsl {
namespace {

/// Coarsening stops once |V| falls below `kCoarsestFactor * k` (at
/// least 64 vertices).
constexpr uint32_t kCoarsestFactor = 32;
/// Refinement sweeps per level.
constexpr uint32_t kRefinePasses = 4;
/// Vertex-weight balance slack during refinement.
constexpr double kVertexBalance = 1.10;

/// Fisher-Yates shuffle with the library's deterministic PRNG.
void ShuffleOrder(std::vector<VertexId>& order, uint64_t seed) {
  SplitMix64 rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    const size_t j = rng.NextBounded(i);
    std::swap(order[i - 1], order[j]);
  }
}

/// Weighted graph of one multilevel hierarchy level.
struct LevelGraph {
  std::vector<uint64_t> offsets;     // |V| + 1
  std::vector<VertexId> neighbors;   // directed copies of each edge
  std::vector<uint32_t> edge_weight;  // parallel to neighbors
  std::vector<uint32_t> vertex_weight;

  VertexId num_vertices() const {
    return static_cast<VertexId>(vertex_weight.size());
  }
  uint64_t HeapBytes() const {
    return offsets.size() * sizeof(uint64_t) +
           neighbors.size() * (sizeof(VertexId) + sizeof(uint32_t)) +
           vertex_weight.size() * sizeof(uint32_t);
  }
};

LevelGraph BuildLevelGraph(const std::vector<Edge>& edges,
                           VertexId num_vertices) {
  LevelGraph g;
  g.vertex_weight.assign(num_vertices, 1);
  g.offsets.assign(static_cast<size_t>(num_vertices) + 1, 0);
  for (const Edge& e : edges) {
    if (e.first == e.second) {
      continue;  // Self-loops are irrelevant for cuts.
    }
    ++g.offsets[e.first + 1];
    ++g.offsets[e.second + 1];
  }
  for (VertexId v = 0; v < num_vertices; ++v) {
    g.offsets[v + 1] += g.offsets[v];
  }
  g.neighbors.resize(g.offsets[num_vertices]);
  g.edge_weight.assign(g.offsets[num_vertices], 1);
  std::vector<uint64_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  for (const Edge& e : edges) {
    if (e.first == e.second) {
      continue;
    }
    g.neighbors[cursor[e.first]++] = e.second;
    g.neighbors[cursor[e.second]++] = e.first;
  }
  return g;
}

/// Heavy-edge matching; returns the coarse id of each fine vertex and
/// the number of coarse vertices.
std::vector<VertexId> HeavyEdgeMatching(const LevelGraph& g, uint64_t seed,
                                        VertexId* num_coarse) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> match(n, kInvalidVertex);
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  ShuffleOrder(order, seed);

  for (const VertexId v : order) {
    if (match[v] != kInvalidVertex) {
      continue;
    }
    VertexId best = kInvalidVertex;
    uint32_t best_weight = 0;
    for (uint64_t i = g.offsets[v]; i < g.offsets[v + 1]; ++i) {
      const VertexId u = g.neighbors[i];
      if (u == v || match[u] != kInvalidVertex) {
        continue;
      }
      if (g.edge_weight[i] > best_weight) {
        best_weight = g.edge_weight[i];
        best = u;
      }
    }
    if (best != kInvalidVertex) {
      match[v] = best;
      match[best] = v;
    } else {
      match[v] = v;
    }
  }

  std::vector<VertexId> coarse_id(n, kInvalidVertex);
  VertexId next = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (coarse_id[v] != kInvalidVertex) {
      continue;
    }
    coarse_id[v] = next;
    coarse_id[match[v]] = next;
    ++next;
  }
  *num_coarse = next;
  return coarse_id;
}

LevelGraph Contract(const LevelGraph& fine,
                    const std::vector<VertexId>& coarse_id,
                    VertexId num_coarse) {
  LevelGraph coarse;
  coarse.vertex_weight.assign(num_coarse, 0);
  for (VertexId v = 0; v < fine.num_vertices(); ++v) {
    coarse.vertex_weight[coarse_id[v]] += fine.vertex_weight[v];
  }

  // Aggregate parallel coarse edges with a per-vertex hash map.
  std::vector<std::unordered_map<VertexId, uint32_t>> adj(num_coarse);
  for (VertexId v = 0; v < fine.num_vertices(); ++v) {
    const VertexId cv = coarse_id[v];
    for (uint64_t i = fine.offsets[v]; i < fine.offsets[v + 1]; ++i) {
      const VertexId cu = coarse_id[fine.neighbors[i]];
      if (cu == cv) {
        continue;  // Internal edge disappears.
      }
      adj[cv][cu] += fine.edge_weight[i];
    }
  }

  coarse.offsets.assign(static_cast<size_t>(num_coarse) + 1, 0);
  for (VertexId v = 0; v < num_coarse; ++v) {
    coarse.offsets[v + 1] = coarse.offsets[v] + adj[v].size();
  }
  coarse.neighbors.resize(coarse.offsets[num_coarse]);
  coarse.edge_weight.resize(coarse.offsets[num_coarse]);
  for (VertexId v = 0; v < num_coarse; ++v) {
    uint64_t pos = coarse.offsets[v];
    for (const auto& [u, w] : adj[v]) {
      coarse.neighbors[pos] = u;
      coarse.edge_weight[pos] = w;
      ++pos;
    }
  }
  return coarse;
}

/// Greedy initial partition of the coarsest graph: vertices in
/// decreasing weight order to the least-loaded partition (LPT).
std::vector<PartitionId> InitialPartition(const LevelGraph& g, uint32_t k) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&g](VertexId a, VertexId b) {
    return g.vertex_weight[a] > g.vertex_weight[b];
  });
  std::vector<PartitionId> part(n, 0);
  std::vector<uint64_t> weight(k, 0);
  for (const VertexId v : order) {
    PartitionId best = 0;
    for (PartitionId p = 1; p < k; ++p) {
      if (weight[p] < weight[best]) {
        best = p;
      }
    }
    part[v] = best;
    weight[best] += g.vertex_weight[v];
  }
  return part;
}

/// Boundary refinement: move vertices to the neighboring partition with
/// the highest positive gain, subject to vertex-weight balance.
void Refine(const LevelGraph& g, uint32_t k, std::vector<PartitionId>* part) {
  const VertexId n = g.num_vertices();
  std::vector<uint64_t> weight(k, 0);
  uint64_t total_weight = 0;
  for (VertexId v = 0; v < n; ++v) {
    weight[(*part)[v]] += g.vertex_weight[v];
    total_weight += g.vertex_weight[v];
  }
  const uint64_t max_weight = static_cast<uint64_t>(
      kVertexBalance * static_cast<double>(total_weight) / k) + 1;

  std::vector<int64_t> link(k, 0);  // edge weight from v to each part
  std::vector<PartitionId> touched;
  for (uint32_t pass = 0; pass < kRefinePasses; ++pass) {
    uint64_t moves = 0;
    for (VertexId v = 0; v < n; ++v) {
      const PartitionId home = (*part)[v];
      touched.clear();
      for (uint64_t i = g.offsets[v]; i < g.offsets[v + 1]; ++i) {
        const PartitionId p = (*part)[g.neighbors[i]];
        if (link[p] == 0) {
          touched.push_back(p);
        }
        link[p] += g.edge_weight[i];
      }
      PartitionId best = home;
      int64_t best_gain = 0;
      for (const PartitionId p : touched) {
        if (p == home) {
          continue;
        }
        if (weight[p] + g.vertex_weight[v] > max_weight) {
          continue;
        }
        const int64_t gain = link[p] - link[home];
        if (gain > best_gain) {
          best_gain = gain;
          best = p;
        }
      }
      if (best != home) {
        weight[home] -= g.vertex_weight[v];
        weight[best] += g.vertex_weight[v];
        (*part)[v] = best;
        ++moves;
      }
      for (const PartitionId p : touched) {
        link[p] = 0;
      }
    }
    if (moves == 0) {
      break;
    }
  }
}

}  // namespace

Status MultilevelPartitioner::Partition(EdgeStream& stream,
                                        const PartitionConfig& config,
                                        AssignmentSink& sink,
                                        PartitionStats* stats) {
  if (config.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  PartitionStats local;
  PartitionStats& out = stats != nullptr ? *stats : local;

  std::vector<Edge> edges;
  VertexId max_id = 0;
  {
    PhaseTimer timer(&out, "load");
    edges.reserve(stream.NumEdgesHint());
    TPSL_RETURN_IF_ERROR(ForEachEdge(stream, [&](const Edge& e) {
      edges.push_back(e);
      max_id = std::max({max_id, e.first, e.second});
    }));
  }
  out.stream_passes += 1;

  PhaseTimer timer(&out, "partitioning");
  const uint32_t k = config.num_partitions;
  const VertexId num_vertices = edges.empty() ? 0 : max_id + 1;

  std::vector<PartitionId> vertex_part(num_vertices, 0);
  uint64_t hierarchy_bytes = 0;
  if (num_vertices > 0) {
    // --- Coarsening. ---
    std::vector<LevelGraph> levels;
    std::vector<std::vector<VertexId>> mappings;
    levels.push_back(BuildLevelGraph(edges, num_vertices));
    const VertexId coarsest = std::max<VertexId>(64, kCoarsestFactor * k);
    while (levels.back().num_vertices() > coarsest) {
      VertexId num_coarse = 0;
      std::vector<VertexId> mapping = HeavyEdgeMatching(
          levels.back(), config.seed + levels.size(), &num_coarse);
      // Stop when matching stalls (< 5% reduction).
      if (num_coarse >
          levels.back().num_vertices() -
              levels.back().num_vertices() / 20) {
        break;
      }
      levels.push_back(Contract(levels.back(), mapping, num_coarse));
      mappings.push_back(std::move(mapping));
    }
    for (const LevelGraph& level : levels) {
      hierarchy_bytes += level.HeapBytes();
    }

    // --- Initial partition + uncoarsening with refinement. ---
    std::vector<PartitionId> part = InitialPartition(levels.back(), k);
    Refine(levels.back(), k, &part);
    for (size_t level = mappings.size(); level-- > 0;) {
      std::vector<PartitionId> fine_part(levels[level].num_vertices());
      for (VertexId v = 0; v < fine_part.size(); ++v) {
        fine_part[v] = part[mappings[level][v]];
      }
      part = std::move(fine_part);
      Refine(levels[level], k, &part);
    }
    vertex_part = std::move(part);
  }

  // --- Derive the edge partition from the vertex partition. ---
  const uint64_t capacity = config.PartitionCapacity(edges.size());
  std::vector<uint64_t> loads(k, 0);
  for (const Edge& e : edges) {
    PartitionId target = vertex_part[e.first];
    if (loads[target] >= capacity) {
      target = vertex_part[e.second];
    }
    if (loads[target] >= capacity) {
      PartitionId best = 0;
      for (PartitionId p = 1; p < k; ++p) {
        if (loads[p] < loads[best]) {
          best = p;
        }
      }
      target = best;
    }
    ++loads[target];
    sink.Assign(e, target);
  }

  out.state_bytes = edges.size() * sizeof(Edge) + hierarchy_bytes +
                    vertex_part.size() * sizeof(PartitionId) +
                    loads.size() * sizeof(uint64_t);
  return Status::OK();
}

}  // namespace tpsl
