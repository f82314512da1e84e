#ifndef TPSL_BENCHKIT_SCENARIO_H_
#define TPSL_BENCHKIT_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tpsl {
namespace benchkit {

/// Where a scenario's edges come from and what it measures.
enum class ScenarioKind {
  /// Materialize the dataset in RAM and partition it (the original
  /// benchkit path). `dataset` names a graph/datasets Table III code.
  kInMemory,
  /// Stream the dataset from disk through ingest::OpenDatasetStream
  /// (the mmap block reader for compressed files, the prefetching
  /// reader for raw ones) and partition out-of-core. `dataset` names
  /// an ingest catalog recipe (bench/catalog.json); the smoke shrink
  /// does not apply (the recipe pins the size).
  kDiskPartition,
  /// Ingest throughput: full scans of the on-disk dataset through the
  /// same stream, no partitioning. `dataset` names a catalog recipe;
  /// `partitioner` and `k` are placeholders for record identity.
  kIngestScan,
  /// Kernel-level throughput of the shared partitioner-state layer
  /// (ScoreTables picks, DenseBitset word ops, ReplicaMatrix
  /// set/test) on synthetic seeded state — no dataset, no partitioner;
  /// `partitioner` and `dataset` are placeholders for record identity.
  /// See benchkit/micro_kernels.h.
  kMicroKernel,
  /// Observability-layer overhead: span/counter/histogram hot paths in
  /// isolation plus a real tracing-off 2PS-L run, so --check catches
  /// instrumentation that starts taxing the numbers it reports. See
  /// benchkit/obs_kernels.h.
  kMicroObs,
  /// Serving traffic: bootstrap a PartitionService on the dataset, then
  /// drive `threads` reader threads (sustained lookups, p50/p99 latency
  /// from the obs histogram) against one writer playing a live
  /// add/remove stream with epoch publishes and a deterministic
  /// re-bootstrap. See serve/serve_scenario.h.
  kServe,
};

/// One pinned benchmark configuration: a named, seeded synthetic-graph
/// × partitioner × k combination. Everything that affects the measured
/// numbers is in the struct, so a scenario re-run on the same code is
/// bit-reproducible (modulo wall time) — the property the baseline
/// gate relies on.
struct Scenario {
  std::string name;         // stable id; keys the baseline file name
  std::string description;  // one line for --list
  std::string partitioner;  // baselines/registry evaluation name
  std::string dataset;      // graph/datasets Table III code, or the
                            // ingest catalog recipe for disk kinds
  uint32_t k = 32;
  /// Dataset shrink relative to the default bench size, pinned per
  /// scenario (deliberately independent of the TPSL_SCALE_SHIFT
  /// environment knob, which would unpin the baseline).
  int scale_shift = 2;
  uint64_t seed = 42;  // PartitionConfig seed
  /// Worker threads for the run (ExecContext::threads, resolved — a
  /// pinned scenario never uses 0/hardware-concurrency, which would
  /// unpin the baseline's machine shape). 1 for sequential
  /// partitioners; the 2psl_par_* scaling scenarios pin 1/2/4.
  uint32_t threads = 1;
  ScenarioKind kind = ScenarioKind::kInMemory;
  /// Larger-tier scenarios (multi-second, out-of-core scale): run by
  /// the CI perf gate under bench_runner's --time-budget, skipped by
  /// the tier-1 --smoke sweep unless explicitly selected.
  bool large = false;
  /// kDiskPartition only: stream the assignments back to disk through
  /// the PartitionedWriter spill sink (one compressed edge-block file
  /// per partition) — the paper's full out-of-core loop, storage to
  /// storage. Spilled files are deleted after measurement; the record
  /// carries "spill_bytes_written".
  bool spill = false;
};

/// Short label for --list output ("memory", "disk", "ingest").
const char* ScenarioKindLabel(ScenarioKind kind);

/// The pinned perf-tracking roster: 2PS-L on diverse graph families
/// plus the headline streaming and in-memory baselines, all at a
/// laptop-friendly scale (each scenario runs in well under a second in
/// a release build).
const std::vector<Scenario>& PinnedScenarios();

/// Looks up a pinned scenario by name; nullptr when unknown.
const Scenario* FindScenario(const std::string& name);

/// Pinned scenario names closest to a (misspelled) `name`, best first —
/// the "did you mean" list bench_runner prints before exiting non-zero
/// on an unknown scenario. Case-insensitive edit distance; names that
/// contain `name` as a substring rank first. Returns at most
/// `max_suggestions`, and never anything hopelessly far away.
std::vector<std::string> SuggestScenarioNames(const std::string& name,
                                              size_t max_suggestions = 3);

}  // namespace benchkit
}  // namespace tpsl

#endif  // TPSL_BENCHKIT_SCENARIO_H_
