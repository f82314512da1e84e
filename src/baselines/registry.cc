#include "baselines/registry.h"

#include "baselines/adwise.h"
#include "baselines/dbh.h"
#include "baselines/dne.h"
#include "baselines/greedy.h"
#include "baselines/grid.h"
#include "baselines/hash.h"
#include "baselines/hdrf.h"
#include "baselines/hep.h"
#include "baselines/multilevel.h"
#include "baselines/ne.h"
#include "baselines/sne.h"
#include "core/two_phase_partitioner.h"

namespace tpsl {

StatusOr<std::unique_ptr<Partitioner>> MakePartitioner(
    const std::string& name) {
  // The "(par)" names are aliases kept for the scenarios and scripts
  // that name them: threads come from PartitionConfig::exec.
  if (name == "2PS-L" || name == "2PS-L(par)") {
    return std::unique_ptr<Partitioner>(new TwoPhasePartitioner());
  }
  if (name == "2PS-HDRF" || name == "2PS-HDRF(par)") {
    TwoPhasePartitioner::Options options;
    options.scoring = TwoPhasePartitioner::ScoringMode::kHdrf;
    return std::unique_ptr<Partitioner>(new TwoPhasePartitioner(options));
  }
  if (name == "HDRF") {
    return std::unique_ptr<Partitioner>(new HdrfPartitioner());
  }
  if (name == "DBH") {
    return std::unique_ptr<Partitioner>(new DbhPartitioner());
  }
  if (name == "Grid") {
    return std::unique_ptr<Partitioner>(new GridPartitioner());
  }
  if (name == "Hash") {
    return std::unique_ptr<Partitioner>(new HashPartitioner());
  }
  if (name == "Greedy") {
    return std::unique_ptr<Partitioner>(new GreedyPartitioner());
  }
  if (name == "ADWISE") {
    return std::unique_ptr<Partitioner>(new AdwisePartitioner());
  }
  if (name == "NE") {
    return std::unique_ptr<Partitioner>(new NePartitioner());
  }
  if (name == "SNE") {
    return std::unique_ptr<Partitioner>(new SnePartitioner());
  }
  if (name == "DNE") {
    return std::unique_ptr<Partitioner>(new DnePartitioner());
  }
  if (name == "HEP-1" || name == "HEP-10" || name == "HEP-100") {
    HepPartitioner::Options options;
    options.tau = std::stod(name.substr(4));
    return std::unique_ptr<Partitioner>(new HepPartitioner(options));
  }
  if (name == "METIS*") {
    return std::unique_ptr<Partitioner>(new MultilevelPartitioner());
  }
  return Status::NotFound("unknown partitioner: " + name);
}

std::vector<std::string> Fig4PartitionerNames() {
  return {"2PS-L", "ADWISE", "HDRF",   "DBH", "SNE", "HEP-1",
          "HEP-10", "HEP-100", "NE",   "DNE", "METIS*"};
}

std::vector<std::string> StreamingPartitionerNames() {
  return {"2PS-L", "2PS-HDRF", "HDRF", "DBH", "Grid", "Greedy", "ADWISE",
          "SNE"};
}

}  // namespace tpsl
