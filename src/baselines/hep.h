#ifndef TPSL_BASELINES_HEP_H_
#define TPSL_BASELINES_HEP_H_

#include <string>

#include "partition/partitioner.h"

namespace tpsl {

/// HEP — Hybrid Edge Partitioner (Mayer & Jacobsen, SIGMOD'21): splits
/// the edge set by vertex degree. Edges whose endpoints both have
/// degree <= τ · mean-degree are held in memory and partitioned with
/// neighborhood expansion; the remaining (high-degree) edges are
/// streamed with HDRF scoring against the shared replication state.
/// τ = 100 behaves like an in-memory partitioner; τ = 1 like a
/// streaming partitioner — exactly the HEP-100 / HEP-10 / HEP-1
/// configurations of the paper's evaluation.
class HepPartitioner : public Partitioner {
 public:
  struct Options {
    /// Degree threshold factor τ (relative to the mean degree).
    double tau = 10.0;
  };

  HepPartitioner() = default;
  explicit HepPartitioner(Options options) : options_(options) {}

  std::string name() const override {
    // Render τ compactly: HEP-1, HEP-10, HEP-100.
    const int tau = static_cast<int>(options_.tau);
    return "HEP-" + std::to_string(tau);
  }

  Status Partition(EdgeStream& stream, const PartitionConfig& config,
                   AssignmentSink& sink, PartitionStats* stats) override;

 private:
  Options options_;
};

}  // namespace tpsl

#endif  // TPSL_BASELINES_HEP_H_
