// Dataset ingestion driver: turns the checked-in catalog
// (bench/catalog.json) into on-disk binary edge lists and keeps them
// honest.
//
//   ingest --describe                 list catalog recipes + cache state
//   ingest --generate                 get-or-generate every dataset
//   ingest --verify                   full re-checksum against the pins
//   ingest --pin                      generate + write actual edge counts
//                                     and checksums back into the catalog
//
//   --catalog=FILE    catalog path (default bench/catalog.json)
//   --dir=DIR         dataset cache dir (default bench/.datasets)
//   --name=NAME       restrict to one dataset (repeatable)
//   --format=F        override the on-disk encoding (raw | compressed)
//                     for --generate/--verify; with --pin the
//                     catalog is rewritten to the chosen format
//   --chunk-edges=N   generation chunk buffer, in edges (default 1Mi)
//   --trace=FILE      record spans while running (any mode) and export
//                     Chrome trace-event JSON to FILE on exit (load in
//                     ui.perfetto.dev or chrome://tracing)
//   --verbose         emit debug-severity log lines too
//
// CI runs --generate (cache-backed via actions/cache keyed on the
// catalog hash) and --verify before the bench_runner perf gate. Read
// and partitioning throughput on the datasets are measured by the
// bench_runner ingest_* and disk scenarios.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ingest/catalog.h"
#include "io/edge_file.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/status.h"

namespace {

using tpsl::Status;
using tpsl::ingest::Catalog;
using tpsl::ingest::CatalogEntry;
using tpsl::ingest::DatasetPath;
using tpsl::ingest::EnsureDataset;
using tpsl::ingest::EnsureResult;
using tpsl::ingest::LoadCatalog;
using tpsl::ingest::SaveCatalog;
using tpsl::ingest::VerifyDataset;

struct Options {
  enum class Mode { kNone, kDescribe, kGenerate, kVerify, kPin };
  Mode mode = Mode::kNone;
  std::string catalog_path = "bench/catalog.json";
  std::string dir = "bench/.datasets";
  std::vector<std::string> names;
  int format_override = -1;  // -1 = catalog's; 0 = raw; 1 = compressed
  size_t chunk_edges = 1 << 20;
  std::string trace_path;  // --trace (empty = tracing off)
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--describe | --generate | --verify | --pin)"
               " [--catalog=FILE] [--dir=DIR] [--name=NAME ...]"
               " [--format=raw|compressed] [--chunk-edges=N]"
               " [--trace=FILE] [--verbose]\n",
               argv0);
  return 2;
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') {
    return false;
  }
  *value = arg + len + 1;
  return true;
}

/// Re-targets entries at the --format override. Changing the encoding
/// invalidates the physical (file-byte) pin — the logical edge pins
/// stay, which is the whole point of keeping them format-independent.
void ApplyFormatOverride(const Options& options,
                         std::vector<CatalogEntry>* entries) {
  if (options.format_override < 0) {
    return;
  }
  const uint32_t format = static_cast<uint32_t>(options.format_override);
  for (CatalogEntry& entry : *entries) {
    if (entry.format_version != format) {
      entry.format_version = format;
      entry.expected_file_checksum.clear();
    }
  }
}

/// Catalog entries selected by --name filters (all when none given).
bool SelectEntries(const Catalog& catalog, const Options& options,
                   std::vector<CatalogEntry>* selected) {
  if (options.names.empty()) {
    *selected = catalog.entries;
  } else {
    for (const std::string& name : options.names) {
      const CatalogEntry* entry = catalog.Find(name);
      if (entry == nullptr) {
        TPSL_LOG(Error) << "unknown dataset '" << name
                        << "' (see --describe)";
        return false;
      }
      selected->push_back(*entry);
    }
  }
  ApplyFormatOverride(options, selected);
  return !selected->empty();
}

int Describe(const Catalog& catalog, const Options& options) {
  std::vector<CatalogEntry> entries;
  if (!SelectEntries(catalog, options, &entries)) {
    return 2;
  }
  std::printf("%-14s %-18s %5s %4s %8s %14s %-8s %-24s %s\n", "name", "kind",
              "scale", "ef", "seed", "edges", "format", "checksum", "cache");
  for (const CatalogEntry& entry : entries) {
    const std::string path = DatasetPath(options.dir, entry.recipe.name);
    std::FILE* probe = std::fopen(path.c_str(), "rb");
    const char* cache = "absent";
    if (probe != nullptr) {
      std::fclose(probe);
      cache = "present";
    }
    std::printf("%-14s %-18s %5u %4u %8" PRIu64 " %14" PRIu64
                " %-8s %-24s %s\n",
                entry.recipe.name.c_str(), entry.recipe.kind.c_str(),
                entry.recipe.scale, entry.recipe.edge_factor,
                entry.recipe.seed, entry.expected_edges,
                tpsl::io::EdgeFileFormatName(
                    entry.format_version == 1
                        ? tpsl::io::EdgeFileFormat::kCompressedBlocks
                        : tpsl::io::EdgeFileFormat::kRaw),
                entry.expected_checksum.empty()
                    ? "(unpinned)"
                    : entry.expected_checksum.c_str(),
                cache);
  }
  std::printf(
      "\nformats: raw = headerless u32 endpoint pairs; blocks1 = the\n"
      "compressed edge-block format (delta/bit-packed columns in checksummed\n"
      "blocks — see README \"On-disk format\"). checksum is the logical\n"
      "FNV-1a over decoded edge bytes, identical across formats.\n");
  return 0;
}

int Generate(const Catalog& catalog, const Options& options) {
  std::vector<CatalogEntry> entries;
  if (!SelectEntries(catalog, options, &entries)) {
    return 2;
  }
  for (const CatalogEntry& entry : entries) {
    auto result = EnsureDataset(entry, options.dir, options.chunk_edges);
    if (!result.ok()) {
      TPSL_LOG(Error) << result.status().ToString();
      return 1;
    }
    std::string timing;
    if (result->generated) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), " (%.2fs)", result->generate_seconds);
      timing = buf;
    }
    std::printf("%-14s %s  %" PRIu64 " edges, %" PRIu64 " bytes, %s%s\n",
                entry.recipe.name.c_str(),
                result->generated ? "generated" : "cached   ",
                result->num_edges, result->file_bytes,
                result->checksum.c_str(), timing.c_str());
  }
  return 0;
}

int Verify(const Catalog& catalog, const Options& options) {
  std::vector<CatalogEntry> entries;
  if (!SelectEntries(catalog, options, &entries)) {
    return 2;
  }
  bool ok = true;
  for (const CatalogEntry& entry : entries) {
    const Status status = VerifyDataset(entry, options.dir);
    std::printf("%-14s %s\n", entry.recipe.name.c_str(),
                status.ok() ? "ok" : status.ToString().c_str());
    ok = ok && status.ok();
  }
  return ok ? 0 : 1;
}

int Pin(Catalog catalog, const Options& options) {
  // Pinning ignores --name filters: a half-pinned catalog is worse
  // than an unpinned one. --format does apply — it rewrites the whole
  // catalog to the chosen encoding.
  ApplyFormatOverride(options, &catalog.entries);
  for (CatalogEntry& entry : catalog.entries) {
    // Pinning exists to capture what the *current* generator produces,
    // so never trust the cache: a cached file from before a generator
    // change matches its manifest and would silently re-pin the old
    // bytes. Drop it and regenerate.
    std::remove(DatasetPath(options.dir, entry.recipe.name).c_str());
    std::remove(
        tpsl::ingest::ManifestPath(options.dir, entry.recipe.name).c_str());
    // Generate against a pin-free copy so stale pins don't block the
    // regeneration they are being updated from.
    CatalogEntry unpinned = entry;
    unpinned.expected_edges = 0;
    unpinned.expected_checksum.clear();
    unpinned.expected_file_checksum.clear();
    auto result = EnsureDataset(unpinned, options.dir, options.chunk_edges);
    if (!result.ok()) {
      TPSL_LOG(Error) << result.status().ToString();
      return 1;
    }
    entry.expected_edges = result->num_edges;
    entry.expected_checksum = result->checksum;
    entry.expected_file_checksum = result->file_checksum;
    std::printf("pinned %-14s %" PRIu64 " edges %s file %s (%" PRIu64
                " bytes)\n",
                entry.recipe.name.c_str(), result->num_edges,
                result->checksum.c_str(), result->file_checksum.c_str(),
                result->file_bytes);
  }
  const Status status = SaveCatalog(catalog, options.catalog_path);
  if (!status.ok()) {
    TPSL_LOG(Error) << status.ToString();
    return 1;
  }
  std::printf("wrote %s\n", options.catalog_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--describe") == 0) {
      options.mode = Options::Mode::kDescribe;
    } else if (std::strcmp(arg, "--generate") == 0) {
      options.mode = Options::Mode::kGenerate;
    } else if (std::strcmp(arg, "--verify") == 0) {
      options.mode = Options::Mode::kVerify;
    } else if (std::strcmp(arg, "--pin") == 0) {
      options.mode = Options::Mode::kPin;
    } else if (ParseFlag(arg, "--catalog", &value)) {
      options.catalog_path = value;
    } else if (ParseFlag(arg, "--dir", &value)) {
      options.dir = value;
    } else if (ParseFlag(arg, "--name", &value)) {
      options.names.push_back(value);
    } else if (ParseFlag(arg, "--format", &value)) {
      if (value == "raw") {
        options.format_override = 0;
      } else if (value == "compressed" || value == "blocks1") {
        options.format_override = 1;
      } else {
        TPSL_LOG(Error) << "bad --format '" << value
                        << "' (want raw | compressed)";
        return Usage(argv[0]);
      }
    } else if (ParseFlag(arg, "--trace", &value)) {
      options.trace_path = value;
    } else if (std::strcmp(arg, "--trace") == 0 && i + 1 < argc) {
      options.trace_path = argv[++i];
    } else if (std::strcmp(arg, "--verbose") == 0) {
      tpsl::SetMinLogSeverity(tpsl::LogSeverity::kDebug);
    } else if (ParseFlag(arg, "--chunk-edges", &value)) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || parsed == 0) {
        TPSL_LOG(Error) << "bad --chunk-edges '" << value << "'";
        return Usage(argv[0]);
      }
      options.chunk_edges = static_cast<size_t>(parsed);
    } else {
      TPSL_LOG(Error) << "unknown argument '" << arg << "'";
      return Usage(argv[0]);
    }
  }
  if (options.mode == Options::Mode::kNone) {
    return Usage(argv[0]);
  }
  auto catalog = LoadCatalog(options.catalog_path);
  if (!catalog.ok()) {
    TPSL_LOG(Error) << catalog.status().ToString();
    return 1;
  }
  if (!options.trace_path.empty()) {
    tpsl::obs::SetTracingEnabled(true);
  }
  int rc = 0;
  switch (options.mode) {
    case Options::Mode::kDescribe:
      rc = Describe(*catalog, options);
      break;
    case Options::Mode::kGenerate:
      rc = Generate(*catalog, options);
      break;
    case Options::Mode::kVerify:
      rc = Verify(*catalog, options);
      break;
    case Options::Mode::kPin:
      rc = Pin(std::move(*catalog), options);
      break;
    case Options::Mode::kNone:
      return Usage(argv[0]);
  }
  if (!options.trace_path.empty()) {
    tpsl::obs::SetTracingEnabled(false);
    const Status status = tpsl::obs::WriteChromeTrace(options.trace_path);
    if (!status.ok()) {
      TPSL_LOG(Error) << "trace export failed: " << status.ToString();
      return rc != 0 ? rc : 1;
    }
    const tpsl::obs::TraceStats stats = tpsl::obs::GetTraceStats();
    TPSL_LOG(Info) << "wrote " << options.trace_path << " ("
                   << stats.emitted << " events from " << stats.threads
                   << " threads, " << stats.dropped
                   << " dropped by ring wrap) — open in ui.perfetto.dev";
  }
  return rc;
}
