#include "graph/text_edge_list.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tpsl {

Status WriteTextEdgeList(const std::string& path,
                         const std::vector<Edge>& edges) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IoError("cannot open for writing: " + path + ": " +
                           std::strerror(errno));
  }
  for (const Edge& e : edges) {
    if (std::fprintf(file, "%u %u\n", e.first, e.second) < 0) {
      std::fclose(file);
      return Status::IoError("short write to " + path);
    }
  }
  if (std::fclose(file) != 0) {
    return Status::IoError("close failed for " + path);
  }
  return Status::OK();
}

StatusOr<std::vector<Edge>> ReadTextEdgeList(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    return Status::NotFound("no such file: " + path);
  }
  std::vector<Edge> edges;
  // getline grows the buffer to the longest line, so every iteration
  // sees one whole physical line, however long.
  char* line = nullptr;
  size_t line_capacity = 0;
  uint64_t line_no = 0;
  Status status;
  while (::getline(&line, &line_capacity, file) != -1) {
    ++line_no;
    // Skip comments and blank lines.
    const char* p = line;
    while (*p == ' ' || *p == '\t') ++p;
    if (*p == '#' || *p == '%' || *p == '\n' || *p == '\r' || *p == '\0') {
      continue;
    }
    uint64_t u = 0, v = 0;
    if (std::sscanf(p, "%" SCNu64 " %" SCNu64, &u, &v) != 2) {
      status = Status::IoError("malformed line " + std::to_string(line_no) +
                               " in " + path);
      break;
    }
    if (u > kInvalidVertex - 1 || v > kInvalidVertex - 1) {
      status = Status::OutOfRange("vertex id exceeds 32-bit range at line " +
                                  std::to_string(line_no) + " in " + path);
      break;
    }
    edges.push_back(
        Edge{static_cast<VertexId>(u), static_cast<VertexId>(v)});
  }
  // getline returns -1 on a read error as on EOF; only ferror tells
  // them apart, and a failed read must not pass for a shorter graph.
  if (status.ok() && std::ferror(file)) {
    status = Status::IoError("read failed for " + path + ": " +
                             std::strerror(errno));
  }
  std::free(line);
  std::fclose(file);
  if (!status.ok()) {
    return status;
  }
  return edges;
}

}  // namespace tpsl
