#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"
#include "util/random.h"

namespace tpsl {
namespace {

/// Runs the R-MAT edge loop, invoking `emit(Edge)` per kept edge. Both
/// public flavors share this so their RNG walk — and therefore their
/// edge sequence — is identical by construction.
template <typename EmitFn>
void RmatEdgeLoop(const RmatConfig& config, EmitFn&& emit) {
  TPSL_CHECK(config.scale > 0 && config.scale < 31);
  TPSL_CHECK(config.a + config.b + config.c <= 1.0 + 1e-9);
  const VertexId n = VertexId{1} << config.scale;
  const uint64_t m = static_cast<uint64_t>(config.edge_factor) * n;
  SplitMix64 rng(config.seed);

  const double ab = config.a + config.b;
  const double abc = config.a + config.b + config.c;
  for (uint64_t i = 0; i < m; ++i) {
    VertexId u = 0, v = 0;
    for (uint32_t bit = config.scale; bit-- > 0;) {
      const double r = rng.NextDouble();
      // Quadrant choice: a = top-left, b = top-right, c = bottom-left.
      if (r >= ab) {
        u |= VertexId{1} << bit;
        if (r >= abc) {
          v |= VertexId{1} << bit;
        }
      } else if (r >= config.a) {
        v |= VertexId{1} << bit;
      }
    }
    if (u == v) {
      continue;
    }
    emit(Edge{u, v});
  }
}

template <typename EmitFn>
void ErdosRenyiEdgeLoop(const ErdosRenyiConfig& config, EmitFn&& emit) {
  TPSL_CHECK(config.num_vertices > 1);
  SplitMix64 rng(config.seed);
  for (uint64_t i = 0; i < config.num_edges; ++i) {
    const VertexId u =
        static_cast<VertexId>(rng.NextBounded(config.num_vertices));
    VertexId v = static_cast<VertexId>(rng.NextBounded(config.num_vertices));
    while (v == u) {
      v = static_cast<VertexId>(rng.NextBounded(config.num_vertices));
    }
    emit(Edge{u, v});
  }
}

/// Adapts a per-edge emitter into chunk-sink deliveries: accumulates
/// into one bounded buffer and flushes it whenever full. The buffer is
/// the generator's entire memory footprint.
class ChunkBuffer {
 public:
  ChunkBuffer(size_t chunk_edges, const EdgeChunkSink& sink)
      : chunk_edges_(chunk_edges), sink_(sink) {
    TPSL_CHECK(chunk_edges > 0);
    chunk_.reserve(chunk_edges);
  }

  void operator()(const Edge& edge) {
    chunk_.push_back(edge);
    // Compare against the requested bound, not capacity(): reserve()
    // may over-allocate, and the contract is chunks <= chunk_edges.
    if (chunk_.size() == chunk_edges_) {
      Flush();
    }
  }

  void Flush() {
    if (!chunk_.empty()) {
      sink_(chunk_.data(), chunk_.size());
      chunk_.clear();
    }
  }

 private:
  const size_t chunk_edges_;
  const EdgeChunkSink& sink_;
  std::vector<Edge> chunk_;
};

}  // namespace

std::vector<Edge> GenerateRmat(const RmatConfig& config) {
  TPSL_CHECK(config.scale > 0 && config.scale < 31);
  std::vector<Edge> edges;
  edges.reserve(static_cast<uint64_t>(config.edge_factor)
                << config.scale);
  RmatEdgeLoop(config, [&](const Edge& e) { edges.push_back(e); });
  return edges;
}

void GenerateRmatChunked(const RmatConfig& config, size_t chunk_edges,
                         const EdgeChunkSink& sink) {
  ChunkBuffer buffer(chunk_edges, sink);
  RmatEdgeLoop(config, [&](const Edge& e) { buffer(e); });
  buffer.Flush();
}

std::vector<Edge> GenerateErdosRenyi(const ErdosRenyiConfig& config) {
  std::vector<Edge> edges;
  edges.reserve(config.num_edges);
  ErdosRenyiEdgeLoop(config, [&](const Edge& e) { edges.push_back(e); });
  return edges;
}

void GenerateErdosRenyiChunked(const ErdosRenyiConfig& config,
                               size_t chunk_edges, const EdgeChunkSink& sink) {
  ChunkBuffer buffer(chunk_edges, sink);
  ErdosRenyiEdgeLoop(config, [&](const Edge& e) { buffer(e); });
  buffer.Flush();
}

namespace {

template <typename EmitFn>
void PlantedPartitionEdgeLoop(const PlantedPartitionConfig& config,
                              EmitFn&& emit) {
  TPSL_CHECK(config.num_communities > 1);
  TPSL_CHECK(config.num_vertices >= config.num_communities);
  TPSL_CHECK(config.intra_fraction >= 0.0 && config.intra_fraction <= 1.0);
  SplitMix64 rng(config.seed);

  // Zipf-distributed community sizes: weight(i) = 1 / (i+1)^skew.
  std::vector<double> weights(config.num_communities);
  for (uint32_t i = 0; i < config.num_communities; ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i) + 1.0, config.size_skew);
  }
  const double total_weight =
      std::accumulate(weights.begin(), weights.end(), 0.0);

  // Assign contiguous vertex ranges to communities. Every community
  // gets at least 2 vertices so that intra edges are well defined.
  std::vector<VertexId> community_start(config.num_communities + 1, 0);
  VertexId assigned = 0;
  for (uint32_t i = 0; i < config.num_communities; ++i) {
    community_start[i] = assigned;
    const VertexId remaining_communities = config.num_communities - i;
    VertexId size = static_cast<VertexId>(
        std::max(2.0, config.num_vertices * weights[i] / total_weight));
    const VertexId remaining_vertices = config.num_vertices - assigned;
    // Never starve later communities of their 2-vertex minimum.
    size = std::min(size, remaining_vertices - 2 * (remaining_communities - 1));
    size = std::max<VertexId>(size, 2);
    assigned += size;
  }
  community_start[config.num_communities] = config.num_vertices;

  for (uint64_t i = 0; i < config.num_edges; ++i) {
    const bool intra = rng.NextDouble() < config.intra_fraction;
    VertexId u, v;
    if (intra) {
      // Pick a community proportionally to size so per-vertex degree
      // stays roughly uniform across communities.
      const VertexId anchor =
          static_cast<VertexId>(rng.NextBounded(config.num_vertices));
      const uint32_t c = static_cast<uint32_t>(
          std::upper_bound(community_start.begin(),
                           community_start.begin() + config.num_communities +
                               1,
                           anchor) -
          community_start.begin() - 1);
      const VertexId lo = community_start[c];
      const VertexId size = community_start[c + 1] - lo;
      u = lo + static_cast<VertexId>(rng.NextBounded(size));
      v = lo + static_cast<VertexId>(rng.NextBounded(size));
    } else {
      u = static_cast<VertexId>(rng.NextBounded(config.num_vertices));
      v = static_cast<VertexId>(rng.NextBounded(config.num_vertices));
    }
    if (u == v) {
      v = (v + 1 == config.num_vertices) ? 0 : v + 1;
    }
    emit(Edge{u, v});
  }
}

}  // namespace

std::vector<Edge> GeneratePlantedPartition(
    const PlantedPartitionConfig& config) {
  std::vector<Edge> edges;
  edges.reserve(config.num_edges);
  PlantedPartitionEdgeLoop(config, [&](const Edge& e) { edges.push_back(e); });
  return edges;
}

void GeneratePlantedPartitionChunked(const PlantedPartitionConfig& config,
                                     size_t chunk_edges,
                                     const EdgeChunkSink& sink) {
  ChunkBuffer buffer(chunk_edges, sink);
  PlantedPartitionEdgeLoop(config, [&](const Edge& e) { buffer(e); });
  buffer.Flush();
}

std::vector<Edge> GenerateSocialNetwork(const SocialNetworkConfig& config) {
  TPSL_CHECK(config.clique_size >= 3);
  TPSL_CHECK(config.num_vertices >= config.clique_size);
  TPSL_CHECK(config.rewire_prob >= 0.0 && config.rewire_prob <= 1.0);
  TPSL_CHECK(config.hub_fraction >= 0.0);
  SplitMix64 rng(config.seed);

  const VertexId n = config.num_vertices;
  const uint32_t c = config.clique_size;
  std::vector<Edge> edges;
  edges.reserve(static_cast<uint64_t>(n) * (c - 1) / 2 *
                (1.0 + config.hub_fraction) + 16);

  // Friend circles: contiguous cliques with per-edge rewiring.
  for (VertexId base = 0; base + c <= n; base += c) {
    for (uint32_t i = 0; i < c; ++i) {
      for (uint32_t j = i + 1; j < c; ++j) {
        const VertexId u = base + i;
        VertexId v = base + j;
        if (rng.NextDouble() < config.rewire_prob) {
          v = static_cast<VertexId>(rng.NextBounded(n));
        }
        if (u != v) {
          edges.push_back(Edge{u, v});
        }
      }
    }
  }

  // Hub overlay: one endpoint uniform, the other power-law-skewed
  // toward low ids (the global celebrities).
  const uint64_t hub_edges =
      static_cast<uint64_t>(config.hub_fraction * edges.size());
  for (uint64_t i = 0; i < hub_edges; ++i) {
    const VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    const VertexId v = static_cast<VertexId>(
        static_cast<double>(n) *
        std::pow(rng.NextDouble(), config.hub_skew));
    if (u != v && v < n) {
      edges.push_back(Edge{u, v});
    }
  }

  // Social edge dumps have no meaningful global order; shuffle so that
  // streaming algorithms cannot rely on clique contiguity.
  ShuffleEdges(&edges, config.seed + 1);
  return edges;
}

void ShuffleEdges(std::vector<Edge>* edges, uint64_t seed) {
  SplitMix64 rng(seed);
  for (size_t i = edges->size(); i > 1; --i) {
    const size_t j = rng.NextBounded(i);
    std::swap((*edges)[i - 1], (*edges)[j]);
  }
}

}  // namespace tpsl
