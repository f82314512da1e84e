#include "baselines/adwise.h"

#include <algorithm>
#include <vector>

#include "graph/degrees.h"
#include "partition/score_tables.h"
#include "util/timer.h"

namespace tpsl {
namespace {

/// Number of buffered edges.
constexpr uint32_t kWindowSize = 512;

struct ScoredEdge {
  Edge edge;
  PartitionId best_partition;
  double best_score;
};

}  // namespace

Status AdwisePartitioner::Partition(EdgeStream& stream,
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
  ScoreTables tables(degrees.num_vertices(), config.num_partitions,
                     config.PartitionCapacity(degrees.num_edges));
  const LentReplicas lent(sink, tables.replicas());
  out.state_bytes = tables.HeapBytes() +
                    degrees.degrees.size() * sizeof(uint32_t) +
                    kWindowSize * sizeof(ScoredEdge);

  std::vector<ScoredEdge> window;
  window.reserve(kWindowSize);

  const auto score_edge = [&](const Edge& e) -> ScoredEdge {
    const ScoreTables::Choice choice =
        tables.PickHdrf(e, degrees.degree(e.first), degrees.degree(e.second));
    return ScoredEdge{e, choice.partition, choice.score};
  };

  const auto assign = [&](const ScoredEdge& scored) {
    tables.Commit(scored.edge, scored.best_partition);
    sink.Assign(scored.edge, scored.best_partition);
  };

  // Drains the most confident half of the window: re-scores every
  // buffered edge against current state, sorts by descending score and
  // assigns the top `amount`.
  const auto drain = [&](size_t amount) {
    for (ScoredEdge& scored : window) {
      scored = score_edge(scored.edge);
    }
    std::stable_sort(window.begin(), window.end(),
                     [](const ScoredEdge& a, const ScoredEdge& b) {
                       return a.best_score > b.best_score;
                     });
    amount = std::min(amount, window.size());
    for (size_t i = 0; i < amount; ++i) {
      // Re-score lazily: loads move as the window drains, so the best
      // partition may have filled up.
      ScoredEdge fresh = score_edge(window[i].edge);
      assign(fresh);
    }
    ScoredEdgesCounter()->Add(amount);
    window.erase(window.begin(), window.begin() + amount);
  };

  TPSL_RETURN_IF_ERROR(ForEachEdge(stream, [&](const Edge& e) {
    window.push_back(ScoredEdge{e, kInvalidPartition, -1.0});
    if (window.size() >= kWindowSize) {
      drain(kWindowSize / 2 + 1);
    }
  }));
  while (!window.empty()) {
    drain(window.size());
  }
  out.stream_passes += 1;
  return Status::OK();
}

}  // namespace tpsl
