#ifndef TPSL_GRAPH_IN_MEMORY_EDGE_STREAM_H_
#define TPSL_GRAPH_IN_MEMORY_EDGE_STREAM_H_

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "graph/edge_stream.h"
#include "graph/types.h"

namespace tpsl {

/// EdgeStream over an in-memory edge range. Used by tests, examples,
/// and experiments where the page-cache-resident configuration of the
/// paper is modeled (all data hot in memory).
///
/// The stream either owns its edges (vector constructor) or borrows
/// them (span constructor); either way it reads through one span. A
/// borrowed range must outlive the stream.
class InMemoryEdgeStream : public EdgeStream {
 public:
  InMemoryEdgeStream() = default;
  explicit InMemoryEdgeStream(std::vector<Edge> edges)
      : owned_(std::move(edges)), edges_(owned_) {}
  explicit InMemoryEdgeStream(std::span<const Edge> edges) : edges_(edges) {}

  // A copy would alias the source's owned edges; moving keeps the
  // vector's buffer, so the span stays valid.
  InMemoryEdgeStream(const InMemoryEdgeStream&) = delete;
  InMemoryEdgeStream& operator=(const InMemoryEdgeStream&) = delete;
  InMemoryEdgeStream(InMemoryEdgeStream&&) = default;
  InMemoryEdgeStream& operator=(InMemoryEdgeStream&&) = default;

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

 private:
  std::vector<Edge> owned_;
  std::span<const Edge> edges_;
  size_t position_ = 0;
};

}  // namespace tpsl

#endif  // TPSL_GRAPH_IN_MEMORY_EDGE_STREAM_H_
