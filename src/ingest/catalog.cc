#include "ingest/catalog.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "graph/types.h"
#include "ingest/checksum.h"
#include "io/edge_block_format.h"
#include "io/mmap_edge_stream.h"

namespace tpsl {
namespace ingest {
namespace {

using benchkit::JsonValue;
using benchkit::ParseJson;

constexpr int kCatalogVersion = 1;
constexpr int kManifestVersion = 1;

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) {
    return Status::NotFound("cannot open: " + path + ": " +
                            std::strerror(errno));
  }
  std::string text;
  char buffer[4096];
  size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, n);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return Status::IoError("read failed: " + path);
  }
  return text;
}

Status WriteStringToFile(const std::string& text, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IoError("cannot open for writing: " + path + ": " +
                           std::strerror(errno));
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), file);
  const bool close_ok = std::fclose(file) == 0;
  if (written != text.size() || !close_ok) {
    return Status::IoError("short write: " + path);
  }
  return Status::OK();
}

StatusOr<double> RequireNumber(const JsonValue& json, const char* key) {
  const JsonValue* value = json.Find(key);
  if (value == nullptr || !value->is_number()) {
    return Status::InvalidArgument(std::string("missing numeric '") + key +
                                   "'");
  }
  return value->number_value();
}

StatusOr<std::string> RequireString(const JsonValue& json, const char* key) {
  const JsonValue* value = json.Find(key);
  if (value == nullptr || !value->is_string()) {
    return Status::InvalidArgument(std::string("missing string '") + key +
                                   "'");
  }
  return value->string_value();
}

/// Integral field guard: hand-edited catalogs can hold anything, and
/// casting an unchecked double out of range is UB.
StatusOr<double> RequireIntegral(const JsonValue& json, const char* key,
                                 double min, double max) {
  TPSL_ASSIGN_OR_RETURN(const double value, RequireNumber(json, key));
  if (!(value >= min && value <= max) ||
      value != static_cast<double>(static_cast<uint64_t>(value))) {
    return Status::InvalidArgument(std::string("field '") + key +
                                   "' must be an integer in [" +
                                   std::to_string(min) + ", " +
                                   std::to_string(max) + "]");
  }
  return value;
}

uint64_t FileSizeOrZero(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || st.st_size < 0) {
    return 0;
  }
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

const CatalogEntry* Catalog::Find(const std::string& name) const {
  for (const CatalogEntry& entry : entries) {
    if (entry.recipe.name == name) {
      return &entry;
    }
  }
  return nullptr;
}

JsonValue CatalogEntryToJson(const CatalogEntry& entry) {
  JsonValue json = JsonValue::Object();
  json.Set("name", JsonValue::String(entry.recipe.name));
  json.Set("kind", JsonValue::String(entry.recipe.kind));
  json.Set("scale", JsonValue::Number(entry.recipe.scale));
  json.Set("edge_factor", JsonValue::Number(entry.recipe.edge_factor));
  json.Set("skew", JsonValue::Number(entry.recipe.skew));
  json.Set("communities", JsonValue::Number(entry.recipe.communities));
  // Seeds round-trip through a JSON double, so the catalog contract is
  // seeds <= 2^53 (enforced on read).
  json.Set("seed", JsonValue::Number(static_cast<double>(entry.recipe.seed)));
  json.Set("format_version",
           JsonValue::Number(static_cast<double>(entry.format_version)));
  json.Set("expected_edges",
           JsonValue::Number(static_cast<double>(entry.expected_edges)));
  json.Set("expected_checksum", JsonValue::String(entry.expected_checksum));
  json.Set("expected_file_checksum",
           JsonValue::String(entry.expected_file_checksum));
  return json;
}

StatusOr<CatalogEntry> CatalogEntryFromJson(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("catalog entry must be a JSON object");
  }
  CatalogEntry entry;
  TPSL_ASSIGN_OR_RETURN(entry.recipe.name, RequireString(json, "name"));
  TPSL_ASSIGN_OR_RETURN(entry.recipe.kind, RequireString(json, "kind"));
  TPSL_ASSIGN_OR_RETURN(const double scale,
                        RequireIntegral(json, "scale", 1, 30));
  entry.recipe.scale = static_cast<uint32_t>(scale);
  TPSL_ASSIGN_OR_RETURN(const double edge_factor,
                        RequireIntegral(json, "edge_factor", 1, 4096));
  entry.recipe.edge_factor = static_cast<uint32_t>(edge_factor);
  TPSL_ASSIGN_OR_RETURN(entry.recipe.skew, RequireNumber(json, "skew"));
  TPSL_ASSIGN_OR_RETURN(const double communities,
                        RequireIntegral(json, "communities", 0, 4294967295.0));
  entry.recipe.communities = static_cast<uint32_t>(communities);
  TPSL_ASSIGN_OR_RETURN(
      const double seed,
      RequireIntegral(json, "seed", 0, 9007199254740992.0));
  entry.recipe.seed = static_cast<uint64_t>(seed);
  // Pre-format catalogs have neither field: raw encoding, no physical
  // pin (for raw the logical pin already covers the file bytes).
  if (json.Find("format_version") != nullptr) {
    TPSL_ASSIGN_OR_RETURN(const double format_version,
                          RequireIntegral(json, "format_version", 0, 1));
    entry.format_version = static_cast<uint32_t>(format_version);
  }
  TPSL_ASSIGN_OR_RETURN(
      const double expected_edges,
      RequireIntegral(json, "expected_edges", 0, 9007199254740992.0));
  entry.expected_edges = static_cast<uint64_t>(expected_edges);
  TPSL_ASSIGN_OR_RETURN(entry.expected_checksum,
                        RequireString(json, "expected_checksum"));
  if (json.Find("expected_file_checksum") != nullptr) {
    TPSL_ASSIGN_OR_RETURN(entry.expected_file_checksum,
                          RequireString(json, "expected_file_checksum"));
  }
  if (entry.recipe.name.empty() ||
      entry.recipe.name.find('/') != std::string::npos) {
    return Status::InvalidArgument("dataset name '" + entry.recipe.name +
                                   "' must be a non-empty file stem");
  }
  if (!IsStreamableKind(entry.recipe.kind)) {
    return Status::InvalidArgument("dataset '" + entry.recipe.name +
                                   "': unknown generator kind '" +
                                   entry.recipe.kind + "'");
  }
  return entry;
}

StatusOr<Catalog> LoadCatalog(const std::string& path) {
  TPSL_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  auto json_or = ParseJson(text);
  if (!json_or.ok()) {
    return Status(json_or.status().code(),
                  path + ": " + json_or.status().message());
  }
  const JsonValue& json = *json_or;
  TPSL_ASSIGN_OR_RETURN(
      const double version,
      RequireIntegral(json, "ingest_catalog_version", 1, 1000));
  if (version != kCatalogVersion) {
    return Status::InvalidArgument(path + ": unsupported catalog version " +
                                   std::to_string(version));
  }
  const JsonValue* datasets = json.Find("datasets");
  if (datasets == nullptr || !datasets->is_array()) {
    return Status::InvalidArgument(path + ": missing 'datasets' array");
  }
  Catalog catalog;
  for (const JsonValue& element : datasets->array()) {
    auto entry = CatalogEntryFromJson(element);
    if (!entry.ok()) {
      return Status(entry.status().code(),
                    path + ": " + entry.status().message());
    }
    if (catalog.Find(entry->recipe.name) != nullptr) {
      return Status::InvalidArgument(path + ": duplicate dataset '" +
                                     entry->recipe.name + "'");
    }
    catalog.entries.push_back(std::move(entry).value());
  }
  return catalog;
}

Status SaveCatalog(const Catalog& catalog, const std::string& path) {
  JsonValue json = JsonValue::Object();
  json.Set("ingest_catalog_version", JsonValue::Number(kCatalogVersion));
  JsonValue datasets = JsonValue::Array();
  for (const CatalogEntry& entry : catalog.entries) {
    datasets.Append(CatalogEntryToJson(entry));
  }
  json.Set("datasets", std::move(datasets));
  return WriteStringToFile(json.Write() + "\n", path);
}

std::string DatasetPath(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / (name + ".bin")).string();
}

std::string ManifestPath(const std::string& dir, const std::string& name) {
  return (std::filesystem::path(dir) / (name + ".manifest.json")).string();
}

namespace {

struct Manifest {
  DatasetRecipe recipe;
  uint32_t format_version = 0;
  uint64_t num_edges = 0;
  uint64_t file_bytes = 0;
  std::string checksum;       // logical (decoded-edge) digest
  std::string file_checksum;  // on-disk byte digest
};

StatusOr<Manifest> LoadManifest(const std::string& path) {
  TPSL_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  auto json_or = ParseJson(text);
  if (!json_or.ok()) {
    return Status(json_or.status().code(),
                  path + ": " + json_or.status().message());
  }
  const JsonValue& json = *json_or;
  TPSL_ASSIGN_OR_RETURN(
      const double version,
      RequireIntegral(json, "ingest_manifest_version", 1, 1000));
  if (version != kManifestVersion) {
    return Status::InvalidArgument(path + ": unsupported manifest version");
  }
  // The manifest embeds the recipe in catalog-entry form (expected_*
  // holding the actual generated values), so the parsers are shared.
  TPSL_ASSIGN_OR_RETURN(CatalogEntry entry, CatalogEntryFromJson(json));
  TPSL_ASSIGN_OR_RETURN(
      const double file_bytes,
      RequireIntegral(json, "file_bytes", 0, 9007199254740992.0));
  Manifest manifest;
  manifest.recipe = entry.recipe;
  manifest.format_version = entry.format_version;
  manifest.num_edges = entry.expected_edges;
  manifest.checksum = entry.expected_checksum;
  manifest.file_checksum = entry.expected_file_checksum;
  manifest.file_bytes = static_cast<uint64_t>(file_bytes);
  return manifest;
}

Status SaveManifest(const Manifest& manifest, const std::string& path) {
  CatalogEntry entry;
  entry.recipe = manifest.recipe;
  entry.format_version = manifest.format_version;
  entry.expected_edges = manifest.num_edges;
  entry.expected_checksum = manifest.checksum;
  entry.expected_file_checksum = manifest.file_checksum;
  JsonValue json = CatalogEntryToJson(entry);
  json.Set("ingest_manifest_version", JsonValue::Number(kManifestVersion));
  json.Set("file_bytes",
           JsonValue::Number(static_cast<double>(manifest.file_bytes)));
  return WriteStringToFile(json.Write() + "\n", path);
}

/// Does the cached copy satisfy the entry? (Trusts the manifest's
/// checksum; VerifyDataset re-reads the bytes.)
bool CacheIsFresh(const CatalogEntry& entry, const Manifest& manifest,
                  uint64_t actual_file_bytes) {
  if (manifest.recipe != entry.recipe) {
    return false;  // recipe drift: regenerate
  }
  if (manifest.format_version != entry.format_version) {
    return false;  // cached in the other encoding: re-encode
  }
  if (actual_file_bytes == 0 || actual_file_bytes != manifest.file_bytes) {
    return false;  // missing or truncated file
  }
  // Raw files have no framing, so size implies edge count; compressed
  // sizes are format-dependent and covered by the file_bytes equality.
  if (entry.format_version == 0 &&
      actual_file_bytes != manifest.num_edges * sizeof(Edge)) {
    return false;
  }
  if (entry.expected_edges != 0 &&
      entry.expected_edges != manifest.num_edges) {
    return false;  // stale pin
  }
  if (!entry.expected_checksum.empty() &&
      entry.expected_checksum != manifest.checksum) {
    return false;  // stale pin
  }
  if (!entry.expected_file_checksum.empty() &&
      entry.expected_file_checksum != manifest.file_checksum) {
    return false;  // stale physical pin
  }
  return true;
}

}  // namespace

StatusOr<EnsureResult> EnsureDataset(const CatalogEntry& entry,
                                     const std::string& dir,
                                     size_t chunk_edges) {
  const std::string path = DatasetPath(dir, entry.recipe.name);
  const std::string manifest_path = ManifestPath(dir, entry.recipe.name);

  auto manifest_or = LoadManifest(manifest_path);
  if (manifest_or.ok() &&
      CacheIsFresh(entry, *manifest_or, FileSizeOrZero(path))) {
    EnsureResult result;
    result.path = path;
    result.generated = false;
    result.num_edges = manifest_or->num_edges;
    result.file_bytes = manifest_or->file_bytes;
    result.checksum = manifest_or->checksum;
    result.file_checksum = manifest_or->file_checksum;
    return result;
  }

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create dataset dir " + dir + ": " +
                           ec.message());
  }
  TPSL_ASSIGN_OR_RETURN(
      const GenerateFileResult generated,
      GenerateDatasetFile(entry.recipe, path, chunk_edges,
                          entry.format_version == 1
                              ? io::EdgeFileFormat::kCompressedBlocks
                              : io::EdgeFileFormat::kRaw));

  // A fresh generation that contradicts the pin means the generator's
  // behavior drifted — the one failure mode a seed-deterministic
  // catalog exists to catch. Never paper over it.
  if (entry.expected_edges != 0 && generated.num_edges != entry.expected_edges) {
    return Status::FailedPrecondition(
        "dataset '" + entry.recipe.name + "': generated " +
        std::to_string(generated.num_edges) + " edges but the catalog pins " +
        std::to_string(entry.expected_edges) +
        " (generator drift — re-pin with tools/ingest --pin if intended)");
  }
  if (!entry.expected_checksum.empty() &&
      generated.checksum != entry.expected_checksum) {
    return Status::FailedPrecondition(
        "dataset '" + entry.recipe.name + "': generated checksum " +
        generated.checksum + " but the catalog pins " +
        entry.expected_checksum +
        " (generator drift — re-pin with tools/ingest --pin if intended)");
  }
  if (!entry.expected_file_checksum.empty() &&
      generated.file_checksum != entry.expected_file_checksum) {
    return Status::FailedPrecondition(
        "dataset '" + entry.recipe.name + "': generated file checksum " +
        generated.file_checksum + " but the catalog pins " +
        entry.expected_file_checksum +
        " (encoder drift — re-pin with tools/ingest --pin if intended)");
  }

  Manifest manifest;
  manifest.recipe = entry.recipe;
  manifest.format_version = entry.format_version;
  manifest.num_edges = generated.num_edges;
  manifest.file_bytes = generated.file_bytes;
  manifest.checksum = generated.checksum;
  manifest.file_checksum = generated.file_checksum;
  TPSL_RETURN_IF_ERROR(SaveManifest(manifest, manifest_path));

  EnsureResult result;
  result.path = path;
  result.generated = true;
  result.num_edges = generated.num_edges;
  result.file_bytes = generated.file_bytes;
  result.checksum = generated.checksum;
  result.file_checksum = generated.file_checksum;
  result.generate_seconds = generated.generate_seconds;
  return result;
}

namespace {

/// The compressed verify: physical digest against the file pin, then a
/// full decode — exercising every block checksum — with the decoded
/// count and digest checked against the logical pins.
Status VerifyCompressedDataset(const CatalogEntry& entry,
                               const std::string& path) {
  if (!entry.expected_file_checksum.empty()) {
    TPSL_ASSIGN_OR_RETURN(const std::string file_checksum,
                          ChecksumFile(path));
    if (file_checksum != entry.expected_file_checksum) {
      return Status::IoError("dataset '" + entry.recipe.name +
                             "': file checksum " + file_checksum +
                             " does not match pinned " +
                             entry.expected_file_checksum +
                             " (corrupt file?)");
    }
  }
  TPSL_ASSIGN_OR_RETURN(std::unique_ptr<io::MmapEdgeStream> stream,
                        io::MmapEdgeStream::Open(path));
  uint64_t digest = io::kFnv1a64OffsetBasis;
  uint64_t count = 0;
  TPSL_RETURN_IF_ERROR(ForEachEdge(*stream, [&](const Edge& edge) {
    digest = io::Fnv1a64(&edge, sizeof(edge), digest);
    ++count;
  }));
  if (entry.expected_edges != 0 && count != entry.expected_edges) {
    return Status::IoError("dataset '" + entry.recipe.name + "': decoded " +
                           std::to_string(count) + " edges, expected " +
                           std::to_string(entry.expected_edges));
  }
  const std::string checksum = FormatChecksum(digest);
  if (checksum != entry.expected_checksum) {
    return Status::IoError("dataset '" + entry.recipe.name +
                           "': decoded checksum " + checksum +
                           " does not match pinned " +
                           entry.expected_checksum + " (corrupt file?)");
  }
  return Status::OK();
}

}  // namespace

Status VerifyDataset(const CatalogEntry& entry, const std::string& dir) {
  if (entry.expected_checksum.empty()) {
    return Status::FailedPrecondition(
        "dataset '" + entry.recipe.name +
        "' has no pinned checksum; pin it with tools/ingest --pin");
  }
  const std::string path = DatasetPath(dir, entry.recipe.name);
  if (entry.format_version == 1) {
    return VerifyCompressedDataset(entry, path);
  }
  if (entry.expected_edges != 0 &&
      FileSizeOrZero(path) != entry.expected_edges * sizeof(Edge)) {
    return Status::IoError("dataset '" + entry.recipe.name + "': " + path +
                           " is " + std::to_string(FileSizeOrZero(path)) +
                           " bytes, expected " +
                           std::to_string(entry.expected_edges *
                                          sizeof(Edge)));
  }
  TPSL_ASSIGN_OR_RETURN(const std::string checksum, ChecksumFile(path));
  if (checksum != entry.expected_checksum) {
    return Status::IoError("dataset '" + entry.recipe.name + "': checksum " +
                           checksum + " does not match pinned " +
                           entry.expected_checksum + " (corrupt file?)");
  }
  return Status::OK();
}

}  // namespace ingest
}  // namespace tpsl
