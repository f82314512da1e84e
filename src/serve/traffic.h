#ifndef TPSL_SERVE_TRAFFIC_H_
#define TPSL_SERVE_TRAFFIC_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "obs/metrics.h"
#include "partition/partitioner.h"
#include "serve/partition_service.h"
#include "util/status.h"

namespace tpsl {
namespace serve {

/// One sustained serving-traffic run: N reader threads issue lookups
/// against a PartitionService while the calling thread plays a live
/// add/remove stream carved from the tail of the input graph.
struct TrafficOptions {
  PartitionConfig config;

  /// Reader threads (exec::ResolveThreadCount semantics; 0 = hardware).
  uint32_t readers = 4;

  /// Lookups each reader issues (alternating vertex lookups and edge
  /// routes over a seeded key stream).
  uint64_t lookups_per_reader = uint64_t{1} << 18;

  /// Fraction of the input edges held back from the bootstrap and fed
  /// through AddEdge() as the live stream.
  double mutation_fraction = 0.2;

  /// Every Nth mutation removes a random live edge instead of adding
  /// one (0 disables removals).
  uint32_t removal_interval = 8;

  /// The service under traffic; its max_readers is replaced by the
  /// resolved reader count.
  PartitionService::Options service;

  /// Seeds the reader key streams and the removal picker; independent
  /// of config.seed (which drives placement).
  uint64_t seed = 42;

  /// Per-lookup latency sink (null = skip per-op timing).
  obs::Histogram* lookup_histogram = nullptr;
};

/// Placement-side fields (mutations, live_edges, epochs_published,
/// rebootstraps, replication_factor, measured_alpha, lookups) are
/// deterministic for a given input + options; QPS, seconds, and
/// latency percentiles are wall-clock measurements.
struct TrafficResult {
  uint64_t base_edges = 0;
  uint64_t adds = 0;
  uint64_t removals = 0;
  uint64_t skipped_mutations = 0;  // self-loops in the mutation tail
  uint64_t lookups = 0;
  uint64_t lookup_hits = 0;  // timing-dependent: do not gate
  double reader_seconds = 0.0;  // slowest reader's wall time
  double writer_seconds = 0.0;  // mutation stream + final Flush()
  double lookup_qps = 0.0;
  double mutation_qps = 0.0;
  uint64_t live_edges = 0;
  uint64_t epochs_published = 0;
  uint64_t rebootstraps = 0;
  double replication_factor = 0.0;
  double measured_alpha = 0.0;
  double staleness_ratio = 0.0;
  uint64_t state_bytes = 0;
};

StatusOr<TrafficResult> RunTraffic(const std::vector<Edge>& edges,
                                   const TrafficOptions& options);

}  // namespace serve
}  // namespace tpsl

#endif  // TPSL_SERVE_TRAFFIC_H_
