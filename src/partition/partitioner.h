#ifndef TPSL_PARTITION_PARTITIONER_H_
#define TPSL_PARTITION_PARTITIONER_H_

#include <cstdint>
#include <map>
#include <string>

#include "exec/exec_context.h"
#include "graph/edge_stream.h"
#include "graph/types.h"
#include "obs/trace.h"
#include "partition/assignment_sink.h"
#include "util/status.h"
#include "util/timer.h"

namespace tpsl {

/// User-facing configuration of an edge-partitioning run, matching the
/// paper's problem statement (§II-A): k partitions, balance factor α.
struct PartitionConfig {
  /// Number of partitions (k > 1 in the paper; we also accept k == 1).
  uint32_t num_partitions = 32;

  /// Imbalance factor α >= 1: no partition may exceed α·|E|/k edges.
  double balance_factor = 1.05;

  /// Seed for every randomized decision (hashing, tie-breaking).
  uint64_t seed = 42;

  /// Execution engine settings (worker threads, batch size, pool) for
  /// partitioners with parallel paths — 2PS-L/2PS-HDRF and DNE run on
  /// exec.threads workers from exec.pool_or_global(); sequential
  /// partitioners ignore it. The default is one thread.
  exec::ExecContext exec;

  /// Maximum edge capacity of one partition for a graph with
  /// `num_edges` edges: ceil(α·|E|/k), but never below ceil(|E|/k) so a
  /// feasible assignment always exists.
  uint64_t PartitionCapacity(uint64_t num_edges) const {
    const double cap =
        balance_factor * static_cast<double>(num_edges) / num_partitions;
    uint64_t capacity = static_cast<uint64_t>(cap);
    if (static_cast<double>(capacity) < cap) {
      ++capacity;
    }
    const uint64_t floor_cap =
        (num_edges + num_partitions - 1) / num_partitions;
    return capacity < floor_cap ? floor_cap : capacity;
  }
};

/// Run-time / state accounting emitted by every partitioner; feeds the
/// paper's Fig. 4 (run-time, memory) and Fig. 5 (phase breakdown).
struct PartitionStats {
  /// Wall-clock seconds per named phase, e.g. "degree", "clustering",
  /// "partitioning". Sum = total partitioning time.
  std::map<std::string, double> phase_seconds;

  /// 2PS-specific: wall seconds of Algorithm 2's steps, "schedule",
  /// "prepartition" and "scoring" (one pass each). They lie inside the
  /// "partitioning" phase, so TotalSeconds() leaves them out.
  std::map<std::string, double> pass_seconds;

  /// Number of full passes over the edge stream performed.
  uint32_t stream_passes = 0;

  /// Bytes of algorithm state held at peak (replication tables, degree
  /// arrays, cluster maps, buffers, adjacency if in-memory).
  uint64_t state_bytes = 0;

  /// 2PS-specific: edges assigned in the pre-partitioning step vs the
  /// scoring pass (paper Fig. 6). Zero for other partitioners.
  uint64_t prepartitioned_edges = 0;
  uint64_t remaining_edges = 0;

  /// 2PS-specific: edges whose claimed partition differs from the one
  /// they were placed toward, because that partition was full.
  uint64_t overflow_edges = 0;

  double TotalSeconds() const {
    double total = 0;
    for (const auto& [name, seconds] : phase_seconds) {
      total += seconds;
    }
    return total;
  }
};

/// Times one named partitioner phase: accumulates wall seconds into
/// stats->phase_seconds[phase] (the paper's Fig. 5 breakdown) and, when
/// tracing is on, emits a matching "phase"-category trace span. The
/// single phase-accounting primitive for every partitioner; `phase`
/// must be a string literal (the tracer stores the pointer).
class PhaseTimer {
 public:
  PhaseTimer(PartitionStats* stats, const char* phase)
      : sink_(stats != nullptr ? &stats->phase_seconds[phase] : nullptr),
        span_(phase, "phase") {}
  ~PhaseTimer() {
    if (sink_ != nullptr) {
      *sink_ += timer_.ElapsedSeconds();
    }
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double* sink_;
  obs::TraceSpan span_;
  WallTimer timer_;
};

/// Abstract edge partitioner. Implementations must
///  * assign every edge of the stream exactly once via `sink`,
///  * never exceed config.PartitionCapacity(|E|) edges per partition,
///  * touch the graph only through `stream` (multi-pass sequential).
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Human-readable identifier used in experiment output ("2PS-L",
  /// "HDRF", ...).
  virtual std::string name() const = 0;

  /// Whether this partitioner guarantees the hard α·|E|/k cap. Pure
  /// hashing partitioners (DBH, Grid, uniform hash) do not — the paper
  /// annotates their measured α in the plots instead (Fig. 4).
  virtual bool enforces_balance_cap() const { return true; }

  /// Partitions `stream` into `config.num_partitions` parts, reporting
  /// assignments to `sink`. `stats` may be null.
  virtual Status Partition(EdgeStream& stream, const PartitionConfig& config,
                           AssignmentSink& sink, PartitionStats* stats) = 0;
};

}  // namespace tpsl

#endif  // TPSL_PARTITION_PARTITIONER_H_
