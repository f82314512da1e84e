#ifndef TPSL_GRAPH_IN_MEMORY_EDGE_STREAM_H_
#define TPSL_GRAPH_IN_MEMORY_EDGE_STREAM_H_

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "graph/edge_stream.h"
#include "graph/types.h"

namespace tpsl {

/// EdgeStream over an in-memory edge vector. Used by tests, examples,
/// and experiments where the page-cache-resident configuration of the
/// paper is modeled (all data hot in memory).
class InMemoryEdgeStream : public EdgeStream {
 public:
  InMemoryEdgeStream() = default;
  explicit InMemoryEdgeStream(std::vector<Edge> edges)
      : edges_(std::move(edges)) {}

  Status Reset() override {
    position_ = 0;
    return Status::OK();
  }

  size_t Next(Edge* out, size_t capacity) override {
    const size_t n = std::min(capacity, edges_.size() - position_);
    if (n > 0) {
      std::memcpy(out, edges_.data() + position_, n * sizeof(Edge));
      position_ += n;
    }
    return n;
  }

  uint64_t NumEdgesHint() const override { return edges_.size(); }

  const std::vector<Edge>& edges() const { return edges_; }

 private:
  std::vector<Edge> edges_;
  size_t position_ = 0;
};

}  // namespace tpsl

#endif  // TPSL_GRAPH_IN_MEMORY_EDGE_STREAM_H_
