#ifndef TPSL_SERVE_SERVE_SCENARIO_H_
#define TPSL_SERVE_SERVE_SCENARIO_H_

#include "benchkit/record.h"
#include "benchkit/runner.h"
#include "benchkit/scenario.h"
#include "util/status.h"

namespace tpsl {
namespace serve {

/// Runs one ScenarioKind::kServe scenario (ingest::RunScenarioWithIngest
/// dispatches here): bootstrap a PartitionService on the pinned
/// dataset, then `scenario.threads` reader threads issue sustained
/// lookups while one writer plays the mutation tail (epoch publishes +
/// a deterministic re-bootstrap mid-run).
///
/// Every record value comes from the repeat with the best lookup QPS:
/// wall-clock values (seconds, lookup_qps, mutation_qps,
/// lookup_p50_seconds / lookup_p99_seconds from the obs
/// "serve.lookup_seconds" histogram, phase_seconds/readers and
/// /writer), the obs snapshot, and the placement-side values
/// (live_edges, replication_factor, measured_alpha, state_bytes,
/// epochs_published, rebootstraps, lookups, mutations). The run fails
/// when a placement-side value differs from the first repeat's.
StatusOr<benchkit::BenchRecord> RunServeScenario(
    const benchkit::Scenario& scenario,
    const benchkit::RunScenarioOptions& options = {});

}  // namespace serve
}  // namespace tpsl

#endif  // TPSL_SERVE_SERVE_SCENARIO_H_
