#include "benchkit/scenario.h"

#include <algorithm>
#include <cctype>
#include <utility>

namespace tpsl {
namespace benchkit {

const std::vector<Scenario>& PinnedScenarios() {
  // Coverage axes: 2PS-L across the three graph families (social
  // community, web/planted-partition, pure R-MAT) and across k; the
  // re-streaming variant (2PS-HDRF); and the paper's main comparison
  // points — HDRF (stateful streaming), DBH (stateless hashing),
  // Greedy (stateful greedy), NE (in-memory, best quality).
  static const std::vector<Scenario>* scenarios = new std::vector<Scenario>{
      {"2psl_ok_k32", "2PS-L on the social-community graph, headline config",
       "2PS-L", "OK", 32, 2, 42},
      {"2psl_ok_k128", "2PS-L at high partition count (flat-in-k claim)",
       "2PS-L", "OK", 128, 2, 42},
      {"2psl_it_k32", "2PS-L on a web graph (strong communities)", "2PS-L",
       "IT", 32, 3, 42},
      {"2psl_tw_k32", "2PS-L on pure R-MAT (adversarial skew)", "2PS-L",
       "TW", 32, 3, 42},
      {"2pshdrf_ok_k32", "2PS-HDRF re-streaming variant", "2PS-HDRF", "OK",
       32, 2, 42},
      {"hdrf_ok_k32", "HDRF streaming baseline", "HDRF", "OK", 32, 2, 42},
      {"dbh_ok_k32", "DBH stateless hashing baseline", "DBH", "OK", 32, 2,
       42},
      {"greedy_ok_k32", "Greedy stateful streaming baseline", "Greedy", "OK",
       32, 2, 42},
      {"ne_ok_k32", "NE in-memory quality baseline", "NE", "OK", 32, 2, 42},
      // Parallel-scaling scenarios (execution engine): the ported
      // ext_parallel_scaling sweep, pinned at 1/2/4 workers. threads=1
      // is byte-deterministic (the engine degrades to an inline loop);
      // threads>1 records wall time informationally and gates quality
      // with the widened parallel band (see DefaultToleranceFor).
      {"2psl_par_ok_k32_t1", "parallel 2PS-L, 1 worker (determinism anchor)",
       "2PS-L(par)", "OK", 32, 2, 42, 1},
      {"2psl_par_ok_k32_t2", "parallel 2PS-L scaling point, 2 workers",
       "2PS-L(par)", "OK", 32, 2, 42, 2},
      {"2psl_par_ok_k32_t4", "parallel 2PS-L scaling point, 4 workers",
       "2PS-L(par)", "OK", 32, 2, 42, 4},
      // Disk-backed scenarios (ingest subsystem): datasets are the
      // pinned recipes in bench/catalog.json, streamed from disk via
      // ingest::OpenDatasetStream (all four recipes are compressed
      // block files, read by the mmap block reader) — the out-of-core
      // configuration the paper's headline claim is about.
      // scale_shift is 0: the recipe pins the size.
      {"ingest_rmat_s16", "ingest throughput: full scan, R-MAT file",
       "scan", "rmat_s16", 1, 0, 42, 1, ScenarioKind::kIngestScan},
      {"ingest_web_s16", "ingest throughput: full scan, web file",
       "scan", "web_s16", 1, 0, 42, 1, ScenarioKind::kIngestScan},
      {"oocore_2psl_rmat_s16_k32", "out-of-core 2PS-L from the R-MAT file",
       "2PS-L", "rmat_s16", 32, 0, 42, 1, ScenarioKind::kDiskPartition},
      {"oocore_2psl_web_s16_k32", "out-of-core 2PS-L from the web file",
       "2PS-L", "web_s16", 32, 0, 42, 1, ScenarioKind::kDiskPartition},
      // Out-of-core parallel scaling: the engine's workers decode the
      // file's compressed blocks and score them.
      {"2psl_par_rmat_s16_k32_t2", "out-of-core parallel 2PS-L, 2 workers",
       "2PS-L(par)", "rmat_s16", 32, 0, 42, 2, ScenarioKind::kDiskPartition},
      {"2psl_par_rmat_s16_k32_t4", "out-of-core parallel 2PS-L, 4 workers",
       "2PS-L(par)", "rmat_s16", 32, 0, 42, 4, ScenarioKind::kDiskPartition},
      // Larger tier (ROADMAP): an out-of-core run big enough that the
      // time axis means something, guarded by the perf job's
      // --time-budget; skipped by --smoke.
      {"2psl_par_rmat_s20_k32_t4",
       "larger-tier out-of-core parallel 2PS-L (8M edges), 4 workers",
       "2PS-L(par)", "rmat_s20", 32, 0, 42, 4, ScenarioKind::kDiskPartition,
       /*large=*/true},
      // Full out-of-core loop at the largest pinned tier: graph on
      // disk, streaming quality/validation sinks (no edge lists), and
      // partitions spilled back to disk through the writer sink. The
      // gated max_rss_bytes is the proof that resident memory stays
      // O(|V|·k) while 33M edges flow storage-to-storage.
      {"2psl_rmat_s22_k32_spill",
       "larger-tier out-of-core 2PS-L (33M edges), spill-to-disk",
       "2PS-L", "rmat_s22", 32, 0, 42, 1, ScenarioKind::kDiskPartition,
       /*large=*/true, /*spill=*/true},
      // Kernel-level perf gate: the state-kernel scoring loops
      // (ScoreTables picks, DenseBitset word ops, replication
      // set/test) timed in isolation on synthetic seeded state. Small
      // enough for --smoke; the CI perf gate diffs its throughput and
      // checksum against the pinned baseline.
      {"micro_state_kernel",
       "state-kernel scoring/bitset micro-benchmarks (hot-loop gate)",
       "micro", "synthetic", 32, 0, 42, 1, ScenarioKind::kMicroKernel},
      // Observability overhead gate: disabled-span / counter /
      // histogram hot paths, span throughput with tracing on, and a
      // real tracing-off 2PS-L run. Keeps the obs layer honest — the
      // disabled cost must stay at noise level.
      {"micro_obs",
       "observability span/counter/histogram overhead micro-benchmarks",
       "micro", "synthetic", 32, 0, 42, 1, ScenarioKind::kMicroObs},
      // Serving scenarios (src/serve/): the repo measured as a service.
      // `threads` is the reader count; one writer plays a 20% mutation
      // tail (1-in-8 removals) with 256-edge epoch publishes and a
      // deterministic re-bootstrap (threshold 0.1, adopted 4 publishes
      // after the fork), so every placement-side metric is exact while
      // lookup QPS and p50/p99 latency gate the read path.
      {"serve_ok_k32_r1",
       "PartitionService traffic, 1 reader (latency anchor)",
       "PartitionService", "OK", 32, 2, 42, 1, ScenarioKind::kServe},
      {"serve_ok_k32_r4", "PartitionService traffic, 4 readers",
       "PartitionService", "OK", 32, 2, 42, 4, ScenarioKind::kServe},
  };
  return *scenarios;
}

const char* ScenarioKindLabel(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kInMemory:
      return "memory";
    case ScenarioKind::kDiskPartition:
      return "disk";
    case ScenarioKind::kIngestScan:
      return "ingest";
    case ScenarioKind::kMicroKernel:
      return "micro";
    case ScenarioKind::kMicroObs:
      return "micro";
    case ScenarioKind::kServe:
      return "serve";
  }
  return "?";
}

const Scenario* FindScenario(const std::string& name) {
  for (const Scenario& scenario : PinnedScenarios()) {
    if (scenario.name == name) {
      return &scenario;
    }
  }
  return nullptr;
}

namespace {

std::string Lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

/// Classic two-row Levenshtein distance.
size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<size_t> prev(b.size() + 1);
  std::vector<size_t> curr(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) {
    prev[j] = j;
  }
  for (size_t i = 1; i <= a.size(); ++i) {
    curr[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t subst = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, subst});
    }
    std::swap(prev, curr);
  }
  return prev[b.size()];
}

}  // namespace

std::vector<std::string> SuggestScenarioNames(const std::string& name,
                                              size_t max_suggestions) {
  const std::string needle = Lower(name);
  // Anything beyond ~a third of the name rewritten is noise, but always
  // allow a couple of typos for short names.
  const size_t cutoff = std::max<size_t>(3, needle.size() / 3);
  std::vector<std::pair<size_t, std::string>> ranked;
  for (const Scenario& scenario : PinnedScenarios()) {
    const std::string candidate = Lower(scenario.name);
    size_t distance = EditDistance(needle, candidate);
    const bool substring =
        !needle.empty() && candidate.find(needle) != std::string::npos;
    if (substring) {
      distance = 0;  // a prefix/substring hit is always worth showing
    } else if (distance > cutoff) {
      continue;
    }
    ranked.emplace_back(distance, scenario.name);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<std::string> suggestions;
  for (const auto& [distance, candidate] : ranked) {
    if (suggestions.size() >= max_suggestions) {
      break;
    }
    suggestions.push_back(candidate);
  }
  return suggestions;
}

}  // namespace benchkit
}  // namespace tpsl
