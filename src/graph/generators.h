#ifndef TPSL_GRAPH_GENERATORS_H_
#define TPSL_GRAPH_GENERATORS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace tpsl {

/// Deterministic synthetic graph generators. These stand in for the
/// paper's public datasets (OK/IT/TW/FR/UK/GSH/WDC), which are not
/// available offline; graph/datasets.h maps each dataset to the
/// generator that keeps its degree skew or community structure.
/// All generators are pure functions of their config (seed included).
///
/// The R-MAT, Erdős–Rényi and planted-partition generators draw each
/// edge independently, so they come in two flavors: the classic
/// materializing form (std::vector<Edge>) and a chunk-callback form
/// that emits consecutive runs of edges through an EdgeChunkSink with
/// memory bounded by the chunk size. Both flavors walk the same RNG
/// sequence, so for identical configs they produce identical edge
/// streams — the out-of-core ingest layer (src/ingest) relies on that
/// equivalence to generate multi-GB datasets straight to disk.
/// Barabási–Albert and the social-network generator are inherently
/// materializing (preferential attachment keeps an O(|E|) endpoint
/// list; the social generator globally shuffles) and only exist in
/// vector form.

/// Receives consecutive chunks of generated edges in stream order.
/// The pointed-to array is only valid for the duration of the call.
using EdgeChunkSink = std::function<void(const Edge* edges, size_t count)>;

/// R-MAT (recursive matrix) generator — produces the power-law degree
/// skew characteristic of social networks (OK, TW, FR). Standard
/// Graph500 parameters are a=0.57, b=0.19, c=0.19.
struct RmatConfig {
  uint32_t scale = 16;           // |V| = 2^scale
  uint32_t edge_factor = 16;     // |E| = edge_factor * |V|
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  uint64_t seed = 1;
  bool remove_self_loops = true;
  bool deduplicate = false;      // real edge lists keep multi-edges
};

std::vector<Edge> GenerateRmat(const RmatConfig& config);

/// Chunked R-MAT: emits the same edge sequence as GenerateRmat through
/// `sink` in chunks of at most `chunk_edges`, holding only one chunk in
/// memory. `config.deduplicate` is ignored (deduplication requires the
/// full edge set; use the materializing form for that).
void GenerateRmatChunked(const RmatConfig& config, size_t chunk_edges,
                         const EdgeChunkSink& sink);

/// Erdős–Rényi G(n, m): m uniform random edges. No skew, no community
/// structure — the adversarial case for clustering-based partitioning.
struct ErdosRenyiConfig {
  VertexId num_vertices = 1 << 16;
  uint64_t num_edges = 1 << 20;
  uint64_t seed = 1;
  bool remove_self_loops = true;
};

std::vector<Edge> GenerateErdosRenyi(const ErdosRenyiConfig& config);

/// Chunked Erdős–Rényi: identical edge sequence, bounded memory.
void GenerateErdosRenyiChunked(const ErdosRenyiConfig& config,
                               size_t chunk_edges, const EdgeChunkSink& sink);

/// Planted-partition ("stochastic block") generator with power-law
/// community sizes — models web graphs (IT, UK, GSH, WDC): strong
/// locality / community structure, where most edges are intra-cluster.
/// `intra_fraction` is the expected fraction of intra-community edges.
struct PlantedPartitionConfig {
  VertexId num_vertices = 1 << 16;
  uint64_t num_edges = 1 << 20;
  uint32_t num_communities = 256;
  double intra_fraction = 0.95;
  double size_skew = 1.5;  // community-size Zipf exponent
  uint64_t seed = 1;
  bool remove_self_loops = true;
};

std::vector<Edge> GeneratePlantedPartition(const PlantedPartitionConfig& config);

/// Chunked planted partition: identical edge sequence, bounded memory
/// (the community-range table is O(num_communities), not O(|E|)).
void GeneratePlantedPartitionChunked(const PlantedPartitionConfig& config,
                                     size_t chunk_edges,
                                     const EdgeChunkSink& sink);

/// Social-network generator: a relaxed caveman graph plus a hub layer.
/// Real social graphs (OK, FR, WI) are locally dense (friend circles =
/// near-cliques, high clustering coefficient) with a global power-law
/// hub overlay. Vertices are grouped into cliques of `clique_size`;
/// each clique edge is rewired to a random global endpoint with
/// probability `rewire_prob`; finally `hub_fraction`·|E| extra edges
/// connect random vertices to globally popular low-id hubs.
struct SocialNetworkConfig {
  VertexId num_vertices = 1 << 16;
  /// Friend-circle size; clique edges dominate the graph.
  uint32_t clique_size = 12;
  /// Fraction of clique edges rewired to random endpoints (community
  /// "noise"; social networks are noisier than web graphs).
  double rewire_prob = 0.15;
  /// Extra hub edges as a fraction of the clique edge count.
  double hub_fraction = 0.3;
  /// Hub endpoint = floor(n · u^hub_skew): larger = heavier skew.
  double hub_skew = 3.0;
  uint64_t seed = 1;
};

std::vector<Edge> GenerateSocialNetwork(const SocialNetworkConfig& config);

/// In-place cleanup helpers used by generators and data tooling.
void RemoveSelfLoops(std::vector<Edge>* edges);
/// Removes duplicates treating (u,v) and (v,u) as the same edge.
/// Sorts the edge list as a side effect.
void DeduplicateUndirected(std::vector<Edge>* edges);
/// Randomly permutes edge order (stream order matters for streaming
/// partitioners; the paper streams in file order).
void ShuffleEdges(std::vector<Edge>* edges, uint64_t seed);

}  // namespace tpsl

#endif  // TPSL_GRAPH_GENERATORS_H_
