#include "dynamic/incremental_partitioner.h"

#include <algorithm>

#include "core/scoring.h"
#include "util/random.h"

namespace tpsl {

Status IncrementalPartitioner::Bootstrap(EdgeStream& base_graph,
                                         AssignmentSink& sink) {
  if (bootstrapped_) {
    return Status::FailedPrecondition("Bootstrap() called twice");
  }
  if (config_.num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }

  // Phase 1: degrees + streaming clustering (paper Algorithm 1).
  DegreeTable degree_table;
  TPSL_ASSIGN_OR_RETURN(degree_table, ComputeDegrees(base_graph));
  Clustering clustering;
  TPSL_ASSIGN_OR_RETURN(
      clustering, StreamingClustering(base_graph, degree_table,
                                      config_.num_partitions,
                                      options_.clustering));
  const ClusterSchedule schedule = ScheduleClustersGraham(
      clustering.cluster_volumes, config_.num_partitions);

  // Adopt the state.
  degrees_ = std::move(degree_table.degrees);
  vertex_cluster_ = std::move(clustering.vertex_cluster);
  cluster_volumes_ = std::move(clustering.cluster_volumes);
  cluster_partition_ = schedule.cluster_partition;
  replicas_ = std::make_unique<ReplicaMatrix>(
      static_cast<VertexId>(degrees_.size()), config_.num_partitions);
  loads_.assign(config_.num_partitions, 0);
  num_edges_ = degree_table.num_edges;
  bootstrapped_ = true;

  // Phase 2 over the base graph, placing each edge through the same
  // scoring path that AddEdge() uses. Degrees and volumes are already
  // exact from Phase 1, so no maintenance happens here.
  uint64_t replayed = 0;
  Status status = ForEachEdge(base_graph, [&](const Edge& e) {
    ++replayed;
    auto placed = PlaceEdge(e);
    sink.Assign(e, *placed);
  });
  TPSL_RETURN_IF_ERROR(status);
  if (replayed != num_edges_) {
    return Status::Internal("stream size changed between passes");
  }
  added_since_bootstrap_ = 0;
  removed_since_bootstrap_ = 0;
  return Status::OK();
}

void IncrementalPartitioner::EnsureVertex(VertexId v) {
  if (v < degrees_.size()) {
    return;
  }
  degrees_.resize(static_cast<size_t>(v) + 1, 0);
  vertex_cluster_.resize(static_cast<size_t>(v) + 1, kInvalidCluster);
  replicas_->GrowVertices(v + 1);
}

StatusOr<PartitionId> IncrementalPartitioner::PlaceEdge(const Edge& e) {
  const ClusterId c1 = vertex_cluster_[e.first];
  const ClusterId c2 = vertex_cluster_[e.second];
  const PartitionId p1 = cluster_partition_[c1];
  const PartitionId p2 = cluster_partition_[c2];
  const uint64_t capacity = Capacity();

  PartitionId target = p1;  // Pre-partitioning case of Algorithm 2.
  if (p1 != p2) {
    const uint64_t vol1 =
        options_.use_cluster_volume_term ? cluster_volumes_[c1] : 0;
    const uint64_t vol2 =
        options_.use_cluster_volume_term ? cluster_volumes_[c2] : 0;
    target = PickLinear(*replicas_, e, degrees_[e.first], degrees_[e.second],
                        vol1, vol2, p1, p2);
  }
  if (loads_[target] >= capacity) {
    // Overflow chain: degree-based hash, then least loaded.
    const VertexId pivot =
        degrees_[e.first] >= degrees_[e.second] ? e.first : e.second;
    target = static_cast<PartitionId>(Mix64(HashCombine(config_.seed, pivot)) %
                                      config_.num_partitions);
    if (loads_[target] >= capacity) {
      target = 0;
      for (PartitionId p = 1; p < config_.num_partitions; ++p) {
        if (loads_[p] < loads_[target]) {
          target = p;
        }
      }
    }
  }
  replicas_->Set(e.first, target);
  replicas_->Set(e.second, target);
  ++loads_[target];
  return target;
}

StatusOr<PartitionId> IncrementalPartitioner::AddEdge(const Edge& edge) {
  if (!bootstrapped_) {
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
  // cluster (or founds a new one); volumes track degree growth.
  for (const VertexId v : {edge.first, edge.second}) {
    if (vertex_cluster_[v] == kInvalidCluster) {
      const VertexId other = v == edge.first ? edge.second : edge.first;
      if (vertex_cluster_[other] != kInvalidCluster) {
        vertex_cluster_[v] = vertex_cluster_[other];
      } else {
        vertex_cluster_[v] = static_cast<ClusterId>(cluster_volumes_.size());
        cluster_volumes_.push_back(0);
        // New clusters go to the least-loaded partition.
        PartitionId best = 0;
        for (PartitionId p = 1; p < config_.num_partitions; ++p) {
          if (loads_[p] < loads_[best]) {
            best = p;
          }
        }
        cluster_partition_.push_back(best);
      }
    }
    ++degrees_[v];
    ++cluster_volumes_[vertex_cluster_[v]];
  }
  return PlaceEdge(edge);
}

Status IncrementalPartitioner::RemoveEdge(const Edge& edge,
                                          PartitionId partition) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("RemoveEdge() before Bootstrap()");
  }
  if (partition >= config_.num_partitions) {
    return Status::InvalidArgument("bad partition id");
  }
  if (loads_[partition] == 0 || num_edges_ == 0) {
    return Status::FailedPrecondition("partition has no edges to remove");
  }
  const VertexId hi = std::max(edge.first, edge.second);
  if (hi >= degrees_.size() || degrees_[edge.first] == 0 ||
      degrees_[edge.second] == 0) {
    return Status::InvalidArgument("edge endpoints unknown");
  }
  --loads_[partition];
  --num_edges_;
  ++removed_since_bootstrap_;
  for (const VertexId v : {edge.first, edge.second}) {
    --degrees_[v];
    if (cluster_volumes_[vertex_cluster_[v]] > 0) {
      --cluster_volumes_[vertex_cluster_[v]];
    }
  }
  // Replication bits are shrunk lazily: stale replicas only make the
  // maintained RF an upper bound (see class comment).
  return Status::OK();
}

}  // namespace tpsl
