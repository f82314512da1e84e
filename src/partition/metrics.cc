#include "partition/metrics.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace tpsl {

PartitionQuality QualityFromTallies(std::vector<uint64_t> loads,
                                    uint64_t total_replicas,
                                    uint64_t covered_vertices) {
  PartitionQuality quality;
  for (const uint64_t load : loads) {
    quality.num_edges += load;
  }
  quality.num_covered_vertices = covered_vertices;
  if (covered_vertices > 0) {
    quality.replication_factor = static_cast<double>(total_replicas) /
                                 static_cast<double>(covered_vertices);
  }
  if (!loads.empty()) {
    quality.max_partition_size = *std::max_element(loads.begin(), loads.end());
    quality.min_partition_size = *std::min_element(loads.begin(), loads.end());
    if (quality.num_edges > 0) {
      const double expected = static_cast<double>(quality.num_edges) /
                              static_cast<double>(loads.size());
      quality.measured_alpha =
          static_cast<double>(quality.max_partition_size) / expected;
    }
  }
  quality.partition_sizes = std::move(loads);
  return quality;
}

PartitionQuality ComputeQuality(const std::vector<std::vector<Edge>>& parts) {
  std::vector<uint64_t> loads;
  loads.reserve(parts.size());
  uint64_t total_cover = 0;
  std::unordered_set<VertexId> global_vertices;
  std::unordered_set<VertexId> cover;
  for (const std::vector<Edge>& part : parts) {
    cover.clear();
    for (const Edge& e : part) {
      cover.insert(e.first);
      cover.insert(e.second);
      global_vertices.insert(e.first);
      global_vertices.insert(e.second);
    }
    total_cover += cover.size();
    loads.push_back(part.size());
  }
  return QualityFromTallies(std::move(loads), total_cover,
                            global_vertices.size());
}

Status ValidateLoads(const std::vector<uint64_t>& loads,
                     uint64_t expected_edges, uint64_t capacity) {
  uint64_t total = 0;
  for (size_t i = 0; i < loads.size(); ++i) {
    if (loads[i] > capacity) {
      return Status::FailedPrecondition(
          "partition " + std::to_string(i) + " holds " +
          std::to_string(loads[i]) + " edges, capacity " +
          std::to_string(capacity));
    }
    total += loads[i];
  }
  if (total != expected_edges) {
    return Status::FailedPrecondition(
        "assigned " + std::to_string(total) + " edges, expected " +
        std::to_string(expected_edges));
  }
  return Status::OK();
}

}  // namespace tpsl
