#include "serve/traffic.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "exec/thread_pool.h"
#include "graph/in_memory_edge_stream.h"
#include "serve/partition_service.h"
#include "util/random.h"
#include "util/timer.h"

namespace tpsl {
namespace serve {

StatusOr<TrafficResult> RunTraffic(const std::vector<Edge>& edges,
                                   const TrafficOptions& options) {
  if (edges.empty()) {
    return Status::InvalidArgument("traffic run needs a non-empty graph");
  }
  if (options.mutation_fraction < 0.0 || options.mutation_fraction >= 1.0) {
    return Status::InvalidArgument("mutation_fraction must be in [0, 1)");
  }
  const uint32_t readers = exec::ResolveThreadCount(options.readers);

  size_t mutation_count = static_cast<size_t>(
      static_cast<double>(edges.size()) * options.mutation_fraction);
  mutation_count = std::min(mutation_count, edges.size() - 1);
  const size_t base_count = edges.size() - mutation_count;

  PartitionService::Options service_options = options.service;
  service_options.max_readers = readers;
  PartitionService service(options.config, service_options);

  {
    InMemoryEdgeStream base_stream(
        std::vector<Edge>(edges.begin(), edges.begin() + base_count));
    TPSL_RETURN_IF_ERROR(service.Bootstrap(base_stream));
  }

  VertexId max_vertex = 0;
  for (const Edge& e : edges) {
    max_vertex = std::max(max_vertex, std::max(e.first, e.second));
  }
  const uint64_t vertex_span = static_cast<uint64_t>(max_vertex) + 1;

  // Reader fan-out on an owned pool; the background re-bootstrap rides
  // the global pool, so it never queues behind reader tasks.
  struct ReaderResult {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    double seconds = 0.0;
    bool failed = false;
  };
  std::vector<ReaderResult> per_reader(readers);
  exec::ThreadPool pool(readers);
  exec::TaskGroup group(pool);
  obs::Histogram* latency = options.lookup_histogram;
  for (uint32_t r = 0; r < readers; ++r) {
    group.Submit([&service, &per_reader, r, vertex_span, latency,
                  lookups = options.lookups_per_reader,
                  seed = options.seed] {
      auto reader_or = service.CreateReader();
      if (!reader_or.ok()) {
        per_reader[r].failed = true;
        return;
      }
      std::unique_ptr<PartitionService::Reader> reader =
          std::move(*reader_or);
      SplitMix64 rng(HashCombine(seed, static_cast<uint64_t>(r) + 1));
      uint64_t hits = 0;
      WallTimer total;
      for (uint64_t i = 0; i < lookups; ++i) {
        const uint64_t pick = rng.Next();
        WallTimer op;
        if ((i & 1) == 0) {
          hits += reader->LookupVertex(
                        static_cast<VertexId>(pick % vertex_span))
                      .found;
        } else {
          const Edge probe{static_cast<VertexId>(pick % vertex_span),
                           static_cast<VertexId>((pick >> 32) % vertex_span)};
          hits += reader->RouteEdge(probe) != kInvalidPartition;
        }
        if (latency != nullptr) {
          latency->RecordNanos(static_cast<uint64_t>(op.ElapsedNanos()));
        }
      }
      per_reader[r].seconds = total.ElapsedSeconds();
      per_reader[r].lookups = lookups;
      per_reader[r].hits = hits;
    });
  }

  // Writer: play the mutation tail on the calling thread. Deterministic
  // given (edges, options) — readers never influence placement.
  TrafficResult result;
  result.base_edges = base_count;
  std::vector<Edge> removable;
  removable.reserve(edges.size());
  for (size_t i = 0; i < base_count; ++i) {
    if (edges[i].first != edges[i].second) {
      removable.push_back(edges[i]);
    }
  }
  SplitMix64 removal_rng(HashCombine(options.seed, uint64_t{0xD1E}));
  Status writer_status = Status::OK();
  WallTimer writer_timer;
  for (size_t i = 0; i < mutation_count; ++i) {
    const bool remove = options.removal_interval > 0 &&
                        (i + 1) % options.removal_interval == 0 &&
                        !removable.empty();
    if (remove) {
      const size_t pick = static_cast<size_t>(
          removal_rng.NextBounded(removable.size()));
      const Edge victim = removable[pick];
      removable[pick] = removable.back();
      removable.pop_back();
      writer_status = service.RemoveEdge(victim);
      if (!writer_status.ok()) {
        break;
      }
      ++result.removals;
    } else {
      const Edge& e = edges[base_count + i];
      if (e.first == e.second) {
        ++result.skipped_mutations;
        continue;
      }
      StatusOr<PartitionId> placed = service.AddEdge(e);
      if (!placed.ok()) {
        writer_status = placed.status();
        break;
      }
      removable.push_back(e);
      ++result.adds;
    }
  }
  if (writer_status.ok()) {
    writer_status = service.Flush();
  }
  result.writer_seconds = writer_timer.ElapsedSeconds();

  group.Wait();
  TPSL_RETURN_IF_ERROR(writer_status);
  for (uint32_t r = 0; r < readers; ++r) {
    if (per_reader[r].failed) {
      return Status::Internal("reader failed to acquire a slot");
    }
    result.lookups += per_reader[r].lookups;
    result.lookup_hits += per_reader[r].hits;
    result.reader_seconds =
        std::max(result.reader_seconds, per_reader[r].seconds);
  }
  if (result.reader_seconds > 0.0) {
    result.lookup_qps =
        static_cast<double>(result.lookups) / result.reader_seconds;
  }
  const uint64_t mutations = result.adds + result.removals;
  if (result.writer_seconds > 0.0 && mutations > 0) {
    result.mutation_qps =
        static_cast<double>(mutations) / result.writer_seconds;
  }

  const PartitionService::Stats stats = service.GetStats();
  result.live_edges = stats.live_edges;
  result.epochs_published = stats.epochs_published;
  result.rebootstraps = stats.rebootstraps;
  result.replication_factor = stats.replication_factor;
  result.staleness_ratio = stats.staleness_ratio;
  result.state_bytes = stats.state_bytes;
  if (stats.live_edges > 0) {
    result.measured_alpha =
        static_cast<double>(stats.max_load) *
        static_cast<double>(options.config.num_partitions) /
        static_cast<double>(stats.live_edges);
  }
  return result;
}

}  // namespace serve
}  // namespace tpsl
