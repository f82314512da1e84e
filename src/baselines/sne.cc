#include "baselines/sne.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "baselines/ne.h"
#include "graph/degrees.h"
#include "partition/score_tables.h"
#include "util/timer.h"

namespace tpsl {
namespace {

/// Chunk capacity as a multiple of |V| (the paper's setting).
constexpr double kCacheFactor = 2.0;

/// Routes expansion output through a load-aware indirection: the
/// expander claims edges for a "slot", the adapter maps the slot to the
/// real partition chosen for this expansion round.
class RedirectSink : public AssignmentSink {
 public:
  RedirectSink(AssignmentSink* inner, ScoreTables* tables)
      : inner_(inner), tables_(tables) {}

  void SetTarget(PartitionId target) { target_ = target; }

  void Assign(const Edge& edge, PartitionId /*slot*/) override {
    inner_->Assign(edge, target_);
    tables_->AddLoad(target_);
  }

 private:
  AssignmentSink* inner_;
  ScoreTables* tables_;
  PartitionId target_ = 0;
};

}  // namespace

Status SnePartitioner::Partition(EdgeStream& stream,
                                 const PartitionConfig& config,
                                 AssignmentSink& sink,
                                 PartitionStats* stats) {
  if (config.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  PartitionStats local;
  PartitionStats& out = stats != nullptr ? *stats : local;

  DegreeTable degrees;
  {
    PhaseTimer timer(&out, "degree");
    TPSL_ASSIGN_OR_RETURN(degrees, ComputeDegrees(stream, config.exec));
  }
  out.stream_passes += 1;

  PhaseTimer timer(&out, "partitioning");
  const uint32_t k = config.num_partitions;
  const uint64_t capacity = config.PartitionCapacity(degrees.num_edges);
  const VertexId num_vertices = degrees.num_vertices();
  const uint64_t chunk_capacity = std::max<uint64_t>(
      1024, static_cast<uint64_t>(kCacheFactor * num_vertices));

  // Chunked expansion only needs the load half of the kernel; a
  // zero-vertex table keeps the replica matrix empty.
  ScoreTables tables(0, k, capacity);
  RedirectSink redirect(&sink, &tables);

  std::vector<Edge> chunk;
  chunk.reserve(chunk_capacity);
  uint64_t peak_chunk_bytes = 0;

  const auto flush_chunk = [&]() {
    if (chunk.empty()) {
      return;
    }
    VertexId max_id = 0;
    for (const Edge& e : chunk) {
      max_id = std::max({max_id, e.first, e.second});
    }
    const expansion::IndexedAdjacency adjacency =
        expansion::IndexedAdjacency::Build(chunk, max_id + 1, config.exec);
    expansion::Expander expander(&chunk, &adjacency);
    peak_chunk_bytes = std::max(
        peak_chunk_bytes, chunk.size() * sizeof(Edge) +
                              adjacency.HeapBytes() + expander.HeapBytes());

    // Expansion rounds: grow the least-loaded open partition by one
    // chunk share until the chunk is drained.
    const uint64_t round_share =
        std::max<uint64_t>(1, chunk.size() / k + 1);
    while (expander.UnclaimedEdges() > 0) {
      const PartitionId target = tables.LeastLoadedOpen();
      redirect.SetTarget(target);
      const uint64_t budget =
          std::min<uint64_t>(round_share, capacity - tables.load(target));
      const uint64_t claimed = expander.Expand(target, budget, redirect);
      if (claimed == 0) {
        break;  // Defensive: should not happen while edges remain.
      }
    }
    chunk.clear();
  };

  TPSL_RETURN_IF_ERROR(ForEachEdge(stream, [&](const Edge& e) {
    chunk.push_back(e);
    if (chunk.size() >= chunk_capacity) {
      flush_chunk();
    }
  }));
  flush_chunk();
  out.stream_passes += 1;
  out.state_bytes = degrees.degrees.size() * sizeof(uint32_t) +
                    tables.HeapBytes() + peak_chunk_bytes;
  return Status::OK();
}

}  // namespace tpsl
