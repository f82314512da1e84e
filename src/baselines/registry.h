#ifndef TPSL_BASELINES_REGISTRY_H_
#define TPSL_BASELINES_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "partition/partitioner.h"

namespace tpsl {

/// Creates a partitioner by its evaluation name. Supported names:
/// "2PS-L", "2PS-HDRF", "2PS-L(par)", "2PS-HDRF(par)", "HDRF", "DBH",
/// "Grid", "Hash", "Greedy", "ADWISE", "NE", "SNE", "DNE", "HEP-1",
/// "HEP-10", "HEP-100", "METIS*". The "(par)" names are aliases of
/// "2PS-L" and "2PS-HDRF". Returns NotFound for anything else.
StatusOr<std::unique_ptr<Partitioner>> MakePartitioner(
    const std::string& name);

/// The full baseline roster of the paper's Fig. 4, in plot order.
std::vector<std::string> Fig4PartitionerNames();

/// The streaming-only roster (out-of-core partitioners).
std::vector<std::string> StreamingPartitionerNames();

}  // namespace tpsl

#endif  // TPSL_BASELINES_REGISTRY_H_
