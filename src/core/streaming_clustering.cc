#include "core/streaming_clustering.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <vector>

#include "exec/parallel_for_edges.h"
#include "util/prefetch.h"

namespace tpsl {
namespace {

/// The d[], vol[] and v2c[] arrays of paper Algorithm 1, shared by the
/// engine's workers: cluster labels are founding-vertex ids (no shared
/// allocation counter), volumes live in one array indexed by label.
/// Both are plain vectors read and written through relaxed
/// std::atomic_ref, so v2c can be the result's vertex_cluster from the
/// start. vol[v] is seeded with degree(v) — exactly the volume of the
/// singleton cluster {v} — so first touch needs only the v2c CAS.
/// Unless `shared`, one worker owns the state and volume updates are
/// plain loads and stores: exact without lock-prefixed RMWs.
struct AtomicClusteringState {
  const DegreeTable* degrees;
  ClusterId* v2c;
  uint64_t* vol;
  uint64_t max_volume;
  bool shared = true;

  std::atomic_ref<ClusterId> Label(VertexId v) const {
    return std::atomic_ref<ClusterId>(v2c[v]);
  }
  std::atomic_ref<uint64_t> Volume(ClusterId c) const {
    return std::atomic_ref<uint64_t>(vol[c]);
  }

  /// The two prefetch stages of a streaming pass (ForEachStaged): the
  /// far stage pulls both endpoints' labels and degrees, the near stage
  /// reads the labels, cached by then, and pulls their volumes. An
  /// unlabeled vertex founds the cluster labeled by its own id. Always
  /// inlined (see util/prefetch.h).
  [[gnu::always_inline]] void PrefetchVertexRows(const Edge& e) const {
    PrefetchRead(v2c + e.first);
    PrefetchRead(v2c + e.second);
    const uint32_t* degree_data = degrees->degrees.data();
    PrefetchRead(degree_data + e.first);
    PrefetchRead(degree_data + e.second);
  }

  [[gnu::always_inline]] void PrefetchVolumes(const Edge& e) const {
    for (const VertexId v : {e.first, e.second}) {
      const ClusterId c = Label(v).load(std::memory_order_relaxed);
      PrefetchRead(vol + (c == kInvalidCluster ? v : c));
    }
  }

  void EnsureCluster(VertexId v) {
    // Check-then-CAS: after warm-up almost every vertex is labeled, and
    // the plain load keeps the hot path free of lock-prefixed RMWs (an
    // unconditional CAS halves inline clustering throughput). The CAS
    // stays authoritative for the cold first touch.
    const std::atomic_ref<ClusterId> label = Label(v);
    if (label.load(std::memory_order_relaxed) != kInvalidCluster) {
      return;
    }
    ClusterId expected = kInvalidCluster;
    label.compare_exchange_strong(expected, v, std::memory_order_relaxed);
  }

  /// One edge of one streaming pass: lines 11-22 of Algorithm 1. Reads
  /// are relaxed snapshots, so under concurrency a decision may be made
  /// on stale volumes (benign drift — see header comment). Run inline
  /// in stream order, every snapshot is the exact current value.
  void ProcessEdge(const Edge& e) {
    EnsureCluster(e.first);
    EnsureCluster(e.second);

    const ClusterId cu = Label(e.first).load(std::memory_order_relaxed);
    const ClusterId cv = Label(e.second).load(std::memory_order_relaxed);
    if (cu == cv) {
      return;  // Migration between identical clusters is a no-op.
    }
    // Line 16: both clusters must currently respect the volume bound.
    const uint64_t vol_u = Volume(cu).load(std::memory_order_relaxed);
    const uint64_t vol_v = Volume(cv).load(std::memory_order_relaxed);
    if (vol_u > max_volume || vol_v > max_volume) {
      return;
    }
    // Line 17: the vertex whose cluster has the smaller volume
    // (excluding the vertex's own degree) migrates.
    const uint32_t du = degrees->degree(e.first);
    const uint32_t dv = degrees->degree(e.second);
    const int64_t residual_u = static_cast<int64_t>(vol_u) - du;
    const int64_t residual_v = static_cast<int64_t>(vol_v) - dv;

    VertexId small_vertex;
    uint32_t small_degree;
    ClusterId small_cluster, large_cluster;
    uint64_t small_volume, large_volume;
    if (residual_u <= residual_v) {
      small_vertex = e.first;
      small_degree = du;
      small_cluster = cu;
      large_cluster = cv;
      small_volume = vol_u;
      large_volume = vol_v;
    } else {
      small_vertex = e.second;
      small_degree = dv;
      small_cluster = cv;
      large_cluster = cu;
      small_volume = vol_v;
      large_volume = vol_u;
    }
    // Line 19: migrate only if the target stays within the bound.
    if (large_volume + small_degree <= max_volume) {
      if (shared) {
        Volume(large_cluster)
            .fetch_add(small_degree, std::memory_order_relaxed);
        Volume(small_cluster)
            .fetch_sub(small_degree, std::memory_order_relaxed);
      } else {
        Volume(large_cluster)
            .store(large_volume + small_degree, std::memory_order_relaxed);
        Volume(small_cluster)
            .store(small_volume - small_degree, std::memory_order_relaxed);
      }
      Label(small_vertex).store(large_cluster, std::memory_order_relaxed);
    }
  }
};

}  // namespace

StatusOr<Clustering> ParallelStreamingClustering(
    EdgeStream& stream, const DegreeTable& degrees, uint32_t num_partitions,
    const ClusteringConfig& config, const exec::ExecContext& exec) {
  if (num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be positive");
  }
  if (config.num_passes == 0) {
    return Status::InvalidArgument("num_passes must be positive");
  }
  if (exec.batch_size == 0) {
    return Status::InvalidArgument("exec.batch_size must be positive");
  }

  const VertexId num_vertices =
      static_cast<VertexId>(degrees.degrees.size());
  Clustering result;
  result.vertex_cluster.assign(num_vertices, kInvalidCluster);
  std::vector<uint64_t> vol(degrees.degrees.begin(), degrees.degrees.end());
  AtomicClusteringState state;
  state.degrees = &degrees;
  state.v2c = result.vertex_cluster.data();
  state.vol = vol.data();
  state.max_volume = static_cast<uint64_t>(
      config.volume_cap_factor * static_cast<double>(degrees.TotalVolume()) /
      num_partitions);

  state.shared = exec.Workers() > 1;
  for (uint32_t pass = 0; pass < config.num_passes; ++pass) {
    TPSL_RETURN_IF_ERROR(exec::ParallelForEdges(
        stream, exec,
        [&state](const Edge* edges, size_t count) -> Status {
          ForEachStaged(
              edges, count,
              [&state] [[gnu::always_inline]] (const Edge& e) {
                state.PrefetchVertexRows(e);
              },
              [&state] [[gnu::always_inline]] (const Edge& e) {
                state.PrefetchVolumes(e);
              },
              [&state](const Edge& e) { state.ProcessEdge(e); });
          return Status::OK();
        }));
  }

  // Compact labels to a dense range in place, numbered by first member
  // in vertex-scan order. The renumbering depends only on which
  // vertices share a label, never on label values. Labels are vertex
  // ids, so vol's storage, no longer needed once the passes end,
  // doubles as the label -> dense id table; vertex_cluster[v] is
  // rewritten after its old label has been looked up.
  constexpr uint64_t kUnnumbered = std::numeric_limits<uint64_t>::max();
  std::fill(vol.begin(), vol.end(), kUnnumbered);
  ClusterId num_clusters = 0;
  for (ClusterId& cluster : result.vertex_cluster) {
    if (cluster == kInvalidCluster) {
      continue;  // Vertex never appeared in the stream.
    }
    if (vol[cluster] == kUnnumbered) {
      vol[cluster] = num_clusters++;
    }
    cluster = static_cast<ClusterId>(vol[cluster]);
  }
  std::vector<uint64_t>().swap(vol);

  // Recompute volumes from member degrees: exact under concurrent
  // passes, and clusters emptied by migration are already gone.
  result.cluster_volumes.assign(num_clusters, 0);
  for (VertexId v = 0; v < num_vertices; ++v) {
    const ClusterId cluster = result.vertex_cluster[v];
    if (cluster != kInvalidCluster) {
      result.cluster_volumes[cluster] += degrees.degree(v);
    }
  }
  return result;
}

StatusOr<Clustering> StreamingClustering(EdgeStream& stream,
                                         const DegreeTable& degrees,
                                         uint32_t num_partitions,
                                         const ClusteringConfig& config) {
  return ParallelStreamingClustering(stream, degrees, num_partitions, config,
                                     exec::ExecContext());
}

}  // namespace tpsl
