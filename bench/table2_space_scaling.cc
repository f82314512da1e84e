// Empirically verifies the space-complexity claims of paper Table II:
// stateful streaming partitioners (2PS-L, HDRF) hold O(|V|*k) state;
// DBH O(|V|); Grid O(k); in-memory partitioners (NE) >= O(|E|).
// State bytes cover the whole run: the partitioner's own algorithm
// state (replication tables, degree arrays, adjacency, ...) plus the
// quality sink's. The O(|V|*k) term is one v2p matrix per run: 2PS-L
// lends its matrix to the sink; the others' sink keeps its own.
#include <cstdio>

#include "benchkit/measure.h"
#include "graph/generators.h"

namespace {

std::vector<tpsl::Edge> Rmat(uint32_t scale, uint32_t edge_factor) {
  tpsl::RmatConfig config;
  config.scale = scale;
  config.edge_factor = edge_factor;
  return tpsl::GenerateRmat(config);
}

}  // namespace

int main() {
  using tpsl::benchkit::MeasureOnEdges;
  const int shift = tpsl::benchkit::ScaleShift(0);
  // Clamp like graph/datasets.cc: large shifts floor at scale 10
  // instead of wrapping the unsigned subtraction.
  const uint32_t scale = shift < 5 ? static_cast<uint32_t>(15 - shift) : 10;

  tpsl::benchkit::PrintHeader("Table II (empirical): state bytes vs k");
  std::printf("%-10s %6s %14s\n", "partitioner", "k", "state(bytes)");
  const auto edges = Rmat(scale, 8);
  for (const char* name : {"2PS-L", "HDRF", "DBH", "Grid", "NE"}) {
    for (const uint32_t k : {8u, 32u, 128u}) {
      auto m = MeasureOnEdges(name, "rmat", edges, k);
      if (!m.ok()) {
        std::fprintf(stderr, "%s\n", m.status().ToString().c_str());
        return 1;
      }
      std::printf("%-10s %6u %14llu\n", name, k,
                  static_cast<unsigned long long>(m->state_bytes));
    }
  }
  std::printf(
      "Expected: 2PS-L/HDRF state grows with k (O(|V|*k) bit matrix); "
      "DBH/Grid/NE are k-independent.\n");

  tpsl::benchkit::PrintHeader(
      "Table II (empirical): state bytes vs |E| at fixed |V|, k=32");
  std::printf("%-10s %14s %14s\n", "partitioner", "|E|", "state(bytes)");
  for (const char* name : {"2PS-L", "HDRF", "NE"}) {
    for (const uint32_t edge_factor : {4u, 8u, 16u}) {
      const auto sized_edges = Rmat(scale, edge_factor);
      auto m = MeasureOnEdges(name, "rmat", sized_edges, 32);
      if (!m.ok()) {
        std::fprintf(stderr, "%s\n", m.status().ToString().c_str());
        return 1;
      }
      std::printf("%-10s %14zu %14llu\n", name, sized_edges.size(),
                  static_cast<unsigned long long>(m->state_bytes));
    }
  }
  std::printf(
      "Expected: streaming state independent of |E|; NE state grows "
      "linearly with |E|.\n");
  return 0;
}
