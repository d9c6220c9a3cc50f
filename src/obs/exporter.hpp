// Run exporter: the one reporting path shared by every figure bench and
// reproduce_all. Writes a self-describing artifact directory —
// per-table CSV/JSON files, a metrics.json snapshot, a Chrome trace and
// a versioned manifest.json tying them together (schema reference:
// docs/METRICS.md; usage: docs/OBSERVABILITY.md).
#pragma once

#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace gpucnn::obs {

/// Version of the export schema documented in docs/METRICS.md. Bump on
/// any breaking change to manifest/table/metrics/trace layout.
inline constexpr const char* kSchemaVersion = "1.0.0";

/// The shared `--json / --csv / --trace [--out DIR | DIR]` flag set.
struct ExportOptions {
  bool json = false;
  bool csv = false;
  bool trace = false;
  std::filesystem::path dir = "paper_output";

  [[nodiscard]] bool any() const { return json || csv || trace; }

  /// Parses and strips the recognised flags from argv (adjusting argc);
  /// the first bare argument names the output directory, matching the
  /// historical `reproduce_all [output_dir]` convention. Unrecognised
  /// flags are left in place for the caller.
  static ExportOptions parse(int& argc, char** argv);
};

/// Collects a run's artifacts and writes them plus the manifest.
/// Inactive (all methods no-ops) when no export flag was given, so
/// benches call it unconditionally. Construction with `trace` set
/// enables the global tracer; finish() (or destruction) writes
/// trace.json, metrics.json and manifest.json.
class RunExporter {
 public:
  RunExporter(ExportOptions options, std::string tool);
  ~RunExporter();

  RunExporter(const RunExporter&) = delete;
  RunExporter& operator=(const RunExporter&) = delete;

  [[nodiscard]] bool active() const { return options_.any(); }
  [[nodiscard]] const ExportOptions& options() const { return options_; }
  [[nodiscard]] std::size_t artifact_count() const {
    return artifacts_.size();
  }

  /// Adds a run-level key/value recorded in the manifest (device name,
  /// base configuration, ...).
  void annotate(const std::string& key, const std::string& value);

  /// Exports one table as `<stem>.csv` (RFC 4180) and/or `<stem>.json`.
  /// Column names are sanitised to snake_case identifiers (see
  /// docs/METRICS.md); JSON cells are typed: numeric text becomes a
  /// number, empty text null, anything else a string.
  void add_table(const std::string& stem, const std::string& description,
                 const std::vector<std::string>& header,
                 const std::vector<std::vector<std::string>>& rows);

  /// Exports an arbitrary JSON document as `<stem>.json` (only when
  /// --json was given).
  void add_json(const std::string& stem, const std::string& description,
                const Json& doc);

  /// Writes metrics.json (when --json), trace.json (when --trace) and
  /// manifest.json; returns the manifest path (empty when inactive).
  /// Idempotent; called by the destructor if not called explicitly.
  std::filesystem::path finish();

 private:
  void record_artifact(const std::string& file, const std::string& kind,
                       const std::string& description, std::size_t rows);

  ExportOptions options_;
  std::string tool_;
  Json artifacts_ = Json::array();
  std::vector<std::pair<std::string, std::string>> annotations_;
  bool finished_ = false;
};

/// Lower-cases a column label and maps every non-alphanumeric run to one
/// '_' ("time (ms)" -> "time_ms", "Theano-CorrMM" -> "theano_corrmm").
[[nodiscard]] std::string sanitize_column(const std::string& label);

/// Writes one RFC 4180 CSV row: cells holding a comma, quote or newline
/// are quoted, inner quotes doubled.
void write_csv_row(std::ostream& os, const std::vector<std::string>& row);

}  // namespace gpucnn::obs
