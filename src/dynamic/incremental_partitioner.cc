#include "dynamic/incremental_partitioner.h"

#include <algorithm>
#include <utility>

#include "core/two_phase_partitioner.h"

namespace tpsl {

Status IncrementalPartitioner::Bootstrap(EdgeStream& base_graph,
                                         AssignmentSink& sink) {
  if (state_ != nullptr) {
    return Status::FailedPrecondition("Bootstrap() called twice");
  }
  TPSL_ASSIGN_OR_RETURN(
      TwoPhasePlan plan,
      BuildTwoPhasePlan(base_graph, config_, TwoPhasePartitioner::Options(),
                        nullptr));
  num_edges_ = plan.degrees.num_edges;
  state_ = std::make_unique<Phase2State>(std::move(plan),
                                         config_.num_partitions, Capacity(),
                                         config_.seed, /*shared=*/false);

  // Phase 2 over the base graph in one pass, in stream order: the
  // re-bootstrap job reads one partition per edge by position.
  uint64_t replayed = 0;
  TPSL_RETURN_IF_ERROR(ForEachEdge(base_graph, [&](const Edge& e) {
    ++replayed;
    sink.Assign(e, PlaceEdge(e));
  }));
  if (replayed != num_edges_) {
    return Status::Internal("stream size changed between passes");
  }
  added_since_bootstrap_ = 0;
  removed_since_bootstrap_ = 0;
  return Status::OK();
}

std::vector<uint64_t> IncrementalPartitioner::loads() const {
  std::vector<uint64_t> loads;
  if (state_ != nullptr) {
    loads.reserve(state_->loads.size());
    for (const auto& load : state_->loads) {
      loads.push_back(load.load(std::memory_order_relaxed));
    }
  }
  return loads;
}

void IncrementalPartitioner::EnsureVertex(VertexId v) {
  TwoPhasePlan& plan = state_->plan;
  if (v < plan.degrees.num_vertices()) {
    return;
  }
  plan.degrees.degrees.resize(static_cast<size_t>(v) + 1, 0);
  plan.clustering.vertex_cluster.resize(static_cast<size_t>(v) + 1,
                                        kInvalidCluster);
  state_->replicas.GrowVertices(v + 1);
}

PartitionId IncrementalPartitioner::PlaceEdge(const Edge& e) {
  state_->capacity = Capacity();
  return state_->Place(
      e, state_->PreferLinear(e, state_->Classify(e), /*volume_term=*/true),
      /*credits=*/nullptr);
}

StatusOr<PartitionId> IncrementalPartitioner::AddEdge(const Edge& edge) {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("AddEdge() before Bootstrap()");
  }
  // Validate before touching any state: a rejected edge must leave the
  // partitioner exactly as it was (callers retry or drop the edge).
  if (edge.first == edge.second) {
    return Status::InvalidArgument("self-loop edges are not placeable");
  }
  if (edge.first == kInvalidVertex || edge.second == kInvalidVertex) {
    return Status::InvalidArgument("edge endpoint is the invalid-vertex sentinel");
  }
  ++num_edges_;
  ++added_since_bootstrap_;
  EnsureVertex(std::max(edge.first, edge.second));

  // Cluster maintenance: an unseen endpoint joins the other endpoint's
  // cluster (or founds a new one on the least-loaded partition);
  // volumes track degree growth.
  TwoPhasePlan& plan = state_->plan;
  std::vector<ClusterId>& vertex_cluster = plan.clustering.vertex_cluster;
  std::vector<uint64_t>& volumes = plan.clustering.cluster_volumes;
  for (const VertexId v : {edge.first, edge.second}) {
    if (vertex_cluster[v] == kInvalidCluster) {
      const VertexId other = v == edge.first ? edge.second : edge.first;
      if (vertex_cluster[other] != kInvalidCluster) {
        vertex_cluster[v] = vertex_cluster[other];
      } else {
        vertex_cluster[v] = static_cast<ClusterId>(volumes.size());
        volumes.push_back(0);
        plan.schedule.cluster_partition.push_back(state_->LeastLoaded());
      }
    }
    ++plan.degrees.degrees[v];
    ++volumes[vertex_cluster[v]];
  }
  return PlaceEdge(edge);
}

Status IncrementalPartitioner::RemoveEdge(const Edge& edge,
                                          PartitionId partition) {
  if (state_ == nullptr) {
    return Status::FailedPrecondition("RemoveEdge() before Bootstrap()");
  }
  if (partition >= config_.num_partitions) {
    return Status::InvalidArgument("bad partition id");
  }
  std::atomic<uint64_t>& load = state_->loads[partition];
  if (load.load(std::memory_order_relaxed) == 0 || num_edges_ == 0) {
    return Status::FailedPrecondition("partition has no edges to remove");
  }
  TwoPhasePlan& plan = state_->plan;
  std::vector<uint32_t>& degrees = plan.degrees.degrees;
  const VertexId hi = std::max(edge.first, edge.second);
  if (hi >= degrees.size() || degrees[edge.first] == 0 ||
      degrees[edge.second] == 0) {
    return Status::InvalidArgument("edge endpoints unknown");
  }
  load.fetch_sub(1, std::memory_order_relaxed);
  --num_edges_;
  ++removed_since_bootstrap_;
  for (const VertexId v : {edge.first, edge.second}) {
    --degrees[v];
    uint64_t& volume =
        plan.clustering.cluster_volumes[plan.clustering.vertex_cluster[v]];
    if (volume > 0) {
      --volume;
    }
  }
  // Replication bits are shrunk lazily: stale replicas only make the
  // maintained RF an upper bound (see class comment).
  return Status::OK();
}

}  // namespace tpsl
