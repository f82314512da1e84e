#include "baselines/hep.h"

#include <algorithm>
#include <vector>

#include "baselines/ne.h"
#include "graph/degrees.h"
#include "partition/score_tables.h"
#include "util/timer.h"

namespace tpsl {
namespace {

/// Forwards every assignment while committing it to the score tables
/// (replica matrix + loads), so the matrix lent to the sink holds
/// exactly the assigned edges.
class StateTrackingSink : public AssignmentSink {
 public:
  StateTrackingSink(AssignmentSink* inner, ScoreTables* tables)
      : inner_(inner), tables_(tables) {}

  void Assign(const Edge& edge, PartitionId partition) override {
    tables_->Commit(edge, partition);
    inner_->Assign(edge, partition);
  }

 private:
  AssignmentSink* inner_;
  ScoreTables* tables_;
};

}  // namespace

Status HepPartitioner::Partition(EdgeStream& stream,
                                 const PartitionConfig& config,
                                 AssignmentSink& sink,
                                 PartitionStats* stats) {
  if (config.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  if (options_.tau <= 0) {
    return Status::InvalidArgument("tau must be positive");
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

  uint64_t covered = 0;
  for (const uint32_t d : degrees.degrees) {
    covered += d > 0 ? 1 : 0;
  }
  const double mean_degree =
      covered > 0 ? static_cast<double>(degrees.TotalVolume()) / covered : 0;
  const double threshold = options_.tau * mean_degree;

  const auto is_low = [&](const Edge& e) {
    return degrees.degree(e.first) <= threshold &&
           degrees.degree(e.second) <= threshold;
  };

  ScoreTables tables(degrees.num_vertices(), k, capacity);
  StateTrackingSink tracking_sink(&sink, &tables);
  const LentReplicas lent(sink, tables.replicas());

  // --- In-memory phase: collect and expand the low-degree edges. ---
  std::vector<Edge> low_edges;
  TPSL_RETURN_IF_ERROR(ForEachEdge(stream, [&](const Edge& e) {
    if (is_low(e)) {
      low_edges.push_back(e);
    }
  }));
  out.stream_passes += 1;

  uint64_t expansion_bytes = 0;
  if (!low_edges.empty()) {
    VertexId max_id = 0;
    for (const Edge& e : low_edges) {
      max_id = std::max({max_id, e.first, e.second});
    }
    const expansion::IndexedAdjacency adjacency =
        expansion::IndexedAdjacency::Build(low_edges, max_id + 1,
                                           config.exec);
    expansion::Expander expander(&low_edges, &adjacency);
    expansion_bytes = low_edges.size() * sizeof(Edge) +
                      adjacency.HeapBytes() + expander.HeapBytes();

    const uint64_t share = (low_edges.size() + k - 1) / k;
    for (PartitionId p = 0; p < k; ++p) {
      expander.Expand(p, share, tracking_sink);
    }
    for (PartitionId p = 0; p < k && expander.UnclaimedEdges() > 0; ++p) {
      expander.Expand(p, capacity - tables.load(p), tracking_sink);
    }
  }

  // --- Streaming phase: HDRF over the high-degree edges, seeded with
  // the replication state of the in-memory phase. ---
  TPSL_RETURN_IF_ERROR(ForEachEdgePrefetched(
      stream,
      [&] [[gnu::always_inline]] (const Edge& e) { tables.PrefetchEdge(e); },
      [&](const Edge& e) {
        if (is_low(e)) {
          return false;  // Already assigned in the in-memory phase.
        }
        const PartitionId target =
            tables
                .PickHdrf(e, degrees.degree(e.first), degrees.degree(e.second))
                .partition;
        tracking_sink.Assign(e, target);
        return true;
      }));
  out.stream_passes += 1;

  out.state_bytes = tables.HeapBytes() +
                    degrees.degrees.size() * sizeof(uint32_t) +
                    expansion_bytes;
  return Status::OK();
}

}  // namespace tpsl
