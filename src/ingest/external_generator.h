#ifndef TPSL_INGEST_EXTERNAL_GENERATOR_H_
#define TPSL_INGEST_EXTERNAL_GENERATOR_H_

#include <cstdint>
#include <string>

#include "io/edge_file.h"
#include "util/status.h"

namespace tpsl {
namespace ingest {

/// Recipe for a seed-deterministic on-disk dataset. Only the
/// streamable generator families are allowed (each edge drawn
/// independently), because the whole point of external generation is
/// bounded memory: the writer holds one chunk buffer, never the graph.
///
/// Field use per kind:
///   "rmat"               scale, edge_factor, skew (= R-MAT `a`,
///                        b = c = (1-a)/3), seed
///   "erdos_renyi"        scale (|V| = 2^scale), edge_factor, seed
///   "planted_partition"  scale, edge_factor, skew (= intra_fraction),
///                        communities, seed
struct DatasetRecipe {
  std::string name;           // catalog key; also the file stem
  std::string kind;           // one of the kinds above
  uint32_t scale = 16;        // |V| = 2^scale
  uint32_t edge_factor = 16;  // target |E| = edge_factor * |V|
  double skew = 0.57;
  uint32_t communities = 0;
  uint64_t seed = 1;

  bool operator==(const DatasetRecipe& other) const = default;
};

/// True for the generator kinds GenerateDatasetFile understands.
bool IsStreamableKind(const std::string& kind);

struct GenerateFileResult {
  uint64_t num_edges = 0;
  uint64_t file_bytes = 0;     // on-disk bytes (compressed when blocks)
  /// Logical checksum, "fnv1a64:<hex>" over the decoded edge bytes —
  /// format-independent, so re-encoding a dataset never moves this pin.
  std::string checksum;
  /// Checksum over the on-disk file bytes. Equal to `checksum` for the
  /// raw format (the file *is* the edge bytes); differs for compressed.
  std::string file_checksum;
  /// Size of the single chunk buffer the writer held — the bound on
  /// generation memory regardless of dataset size (tests assert on
  /// this, and on the chunk deliveries never exceeding it).
  uint64_t peak_buffer_bytes = 0;
  double generate_seconds = 0.0;
};

/// Streams the recipe's edges straight to `path`, using one chunk
/// buffer of `chunk_edges` edges. `format` picks the on-disk encoding:
/// the raw (uint32, uint32) edge list, or the compressed edge-block
/// format (io/edge_block_format.h) through a one-file
/// CompressedEdgeWriter. Writes to `path + ".tmp"` and renames on
/// success, so a crashed or failed generation never leaves a
/// plausible-looking partial dataset behind.
StatusOr<GenerateFileResult> GenerateDatasetFile(
    const DatasetRecipe& recipe, const std::string& path,
    size_t chunk_edges = 1 << 20,
    io::EdgeFileFormat format = io::EdgeFileFormat::kRaw);

}  // namespace ingest
}  // namespace tpsl

#endif  // TPSL_INGEST_EXTERNAL_GENERATOR_H_
