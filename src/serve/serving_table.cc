#include "serve/serving_table.h"

#include <algorithm>
#include <bit>

#include "util/random.h"

namespace tpsl {
namespace serve {
namespace {

uint64_t EdgeRouteKey(const Edge& e) {
  const VertexId lo = e.first < e.second ? e.first : e.second;
  const VertexId hi = e.first < e.second ? e.second : e.first;
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

PartitionId HashRoute(uint64_t seed, const Edge& e, uint32_t k) {
  return static_cast<PartitionId>(Mix64(HashCombine(seed, EdgeRouteKey(e))) %
                                  k);
}

/// Shared routing decision once both endpoints' lookups are known.
/// `common` is the lowest-id partition holding both endpoints, or
/// kInvalidPartition.
PartitionId RouteFromLookups(const VertexLookup& a, const VertexLookup& b,
                             PartitionId common, const Edge& e, uint64_t seed,
                             uint32_t k) {
  if (a.found && b.found) {
    if (common != kInvalidPartition) {
      return common;
    }
    if (a.replica_count != b.replica_count) {
      return a.replica_count < b.replica_count ? a.primary : b.primary;
    }
    return e.first <= e.second ? a.primary : b.primary;
  }
  if (a.found) {
    return a.primary;
  }
  if (b.found) {
    return b.primary;
  }
  return HashRoute(seed, e, k);
}

void WriteRowFromState(uint64_t* row, uint32_t words_per_row,
                       const ReplicaMatrix& replicas, VertexId v,
                       uint32_t k) {
  for (uint32_t w = 0; w < words_per_row; ++w) {
    row[w] = 0;
  }
  if (v >= replicas.num_vertices()) {
    return;
  }
  for (PartitionId p = 0; p < k; ++p) {
    if (replicas.Test(v, p)) {
      row[p >> 6] |= uint64_t{1} << (p & 63);
    }
  }
}

}  // namespace

ServingTable::ServingTable(uint64_t epoch, VertexId num_vertices,
                           uint32_t num_partitions, uint64_t seed)
    : epoch_(epoch),
      num_vertices_(num_vertices),
      k_(num_partitions),
      words_per_row_((num_partitions + 63) / 64),
      seed_(seed) {}

VertexLookup ServingTable::LookupVertex(VertexId v) const {
  VertexLookup result;
  if (v >= num_vertices_) {
    return result;
  }
  const uint64_t* row = Row(v);
  for (uint32_t w = 0; w < words_per_row_; ++w) {
    const uint64_t word = row[w];
    if (word == 0) {
      continue;
    }
    if (result.replica_count == 0) {
      result.primary = static_cast<PartitionId>(
          w * 64 + static_cast<uint32_t>(std::countr_zero(word)));
    }
    result.replica_count += static_cast<uint32_t>(std::popcount(word));
  }
  result.found = result.replica_count > 0;
  return result;
}

bool ServingTable::TestReplica(VertexId v, PartitionId p) const {
  if (v >= num_vertices_ || p >= k_) {
    return false;
  }
  return (Row(v)[p >> 6] >> (p & 63)) & 1;
}

PartitionId ServingTable::RouteEdge(const Edge& e) const {
  const VertexLookup a = LookupVertex(e.first);
  const VertexLookup b = LookupVertex(e.second);
  PartitionId common = kInvalidPartition;
  if (a.found && b.found) {
    const uint64_t* ra = Row(e.first);
    const uint64_t* rb = Row(e.second);
    for (uint32_t w = 0; w < words_per_row_; ++w) {
      const uint64_t both = ra[w] & rb[w];
      if (both != 0) {
        common = static_cast<PartitionId>(
            w * 64 + static_cast<uint32_t>(std::countr_zero(both)));
        break;
      }
    }
  }
  return RouteFromLookups(a, b, common, e, seed_, k_);
}

uint64_t ServingTable::HeapBytes() const {
  uint64_t bytes = loads_.capacity() * sizeof(uint64_t) +
                   chunks_.capacity() * sizeof(chunks_[0]);
  for (const auto& chunk : chunks_) {
    bytes += sizeof(ServingChunk) + chunk->words.capacity() * sizeof(uint64_t);
  }
  return bytes;
}

std::shared_ptr<const ServingTable> BuildServingTable(
    const IncrementalPartitioner& state, uint64_t epoch) {
  const ReplicaMatrix* replicas = state.replicas();
  const VertexId n = replicas == nullptr ? 0 : replicas->num_vertices();
  const uint32_t k = state.config().num_partitions;
  auto table = std::shared_ptr<ServingTable>(
      new ServingTable(epoch, n, k, state.config().seed));
  table->loads_ = state.loads();
  table->live_edges_ = state.num_edges();
  const size_t num_chunks =
      (static_cast<size_t>(n) + kServingChunkVertices - 1) >>
      kServingChunkShift;
  table->chunks_.reserve(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    auto chunk = std::make_shared<ServingChunk>(table->words_per_row_);
    const VertexId base = static_cast<VertexId>(c << kServingChunkShift);
    const VertexId end =
        static_cast<VertexId>(std::min<uint64_t>(base + kServingChunkVertices,
                                                 n));
    for (VertexId v = base; v < end; ++v) {
      WriteRowFromState(chunk->words.data() +
                            static_cast<size_t>(v - base) *
                                table->words_per_row_,
                        table->words_per_row_, *replicas, v, k);
    }
    table->chunks_.push_back(std::move(chunk));
  }
  return table;
}

std::shared_ptr<const ServingTable> PatchServingTable(
    const std::shared_ptr<const ServingTable>& prev,
    const IncrementalPartitioner& state,
    const std::vector<VertexId>& dirty_vertices, uint64_t epoch) {
  const ReplicaMatrix* replicas = state.replicas();
  const VertexId n = replicas == nullptr ? 0 : replicas->num_vertices();
  const uint32_t k = state.config().num_partitions;
  auto table = std::shared_ptr<ServingTable>(
      new ServingTable(epoch, n, k, prev->seed_));
  table->loads_ = state.loads();
  table->live_edges_ = state.num_edges();
  const size_t num_chunks =
      (static_cast<size_t>(n) + kServingChunkVertices - 1) >>
      kServingChunkShift;
  const size_t shared_chunks = std::min(num_chunks, prev->chunks_.size());
  table->chunks_.reserve(num_chunks);
  table->chunks_.assign(prev->chunks_.begin(),
                        prev->chunks_.begin() + shared_chunks);
  // Vertex growth: fresh all-zero chunks (writable in place below).
  for (size_t c = shared_chunks; c < num_chunks; ++c) {
    table->chunks_.push_back(
        std::make_shared<ServingChunk>(table->words_per_row_));
  }
  size_t cloned_chunk = num_chunks;  // sentinel: nothing cloned yet
  for (const VertexId v : dirty_vertices) {
    const size_t c = v >> kServingChunkShift;
    ServingChunk* writable;
    if (c >= shared_chunks) {
      // Freshly appended chunk — ours alone, write directly.
      writable = const_cast<ServingChunk*>(table->chunks_[c].get());
    } else {
      if (c != cloned_chunk) {
        table->chunks_[c] = std::make_shared<ServingChunk>(*table->chunks_[c]);
        cloned_chunk = c;
      }
      writable = const_cast<ServingChunk*>(table->chunks_[c].get());
    }
    WriteRowFromState(writable->words.data() +
                          static_cast<size_t>(v & (kServingChunkVertices - 1)) *
                              table->words_per_row_,
                      table->words_per_row_, *replicas, v, k);
  }
  return table;
}

VertexLookup OracleLookupVertex(const ReplicaMatrix& replicas, VertexId v) {
  VertexLookup result;
  if (v >= replicas.num_vertices()) {
    return result;
  }
  for (PartitionId p = 0; p < replicas.num_partitions(); ++p) {
    if (replicas.Test(v, p)) {
      if (result.replica_count == 0) {
        result.primary = p;
      }
      ++result.replica_count;
    }
  }
  result.found = result.replica_count > 0;
  return result;
}

PartitionId OracleRouteEdge(const ReplicaMatrix& replicas, const Edge& e,
                            uint64_t seed) {
  const VertexLookup a = OracleLookupVertex(replicas, e.first);
  const VertexLookup b = OracleLookupVertex(replicas, e.second);
  PartitionId common = kInvalidPartition;
  if (a.found && b.found) {
    for (PartitionId p = 0; p < replicas.num_partitions(); ++p) {
      if (replicas.Test(e.first, p) && replicas.Test(e.second, p)) {
        common = p;
        break;
      }
    }
  }
  return RouteFromLookups(a, b, common, e, seed, replicas.num_partitions());
}

}  // namespace serve
}  // namespace tpsl
