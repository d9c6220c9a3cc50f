#include "obs/exporter.hpp"

#include <cctype>
#include <charconv>
#include <cstring>
#include <fstream>

#include "core/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#ifndef GPUCNN_GIT_DESCRIBE
#define GPUCNN_GIT_DESCRIBE "unknown"
#endif
#ifndef GPUCNN_VERSION
#define GPUCNN_VERSION "0.0.0"
#endif

namespace gpucnn::obs {

ExportOptions ExportOptions::parse(int& argc, char** argv) {
  ExportOptions opts;
  bool dir_set = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--csv") {
      opts.csv = true;
    } else if (arg == "--trace") {
      opts.trace = true;
    } else if (arg == "--out" && i + 1 < argc) {
      opts.dir = argv[++i];
      dir_set = true;
    } else if (!arg.starts_with("--") && !dir_set) {
      opts.dir = argv[i];
      dir_set = true;
    } else {
      argv[out++] = argv[i];  // leave unrecognised args for the caller
    }
  }
  argc = out;
  return opts;
}

std::string sanitize_column(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (const char c : label) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out.empty() ? "column" : out;
}

namespace {

/// Typed JSON cell: full numeric text -> number, empty -> null, rest ->
/// string ("n/s", "OOM", names).
Json typed_cell(const std::string& cell) {
  if (cell.empty()) return Json();
  double value = 0.0;
  const char* end = cell.data() + cell.size();
  const auto [ptr, ec] = std::from_chars(cell.data(), end, value);
  if (ec == std::errc{} && ptr == end) return Json(value);
  return Json(cell);
}

void write_csv_cell(std::ostream& os, const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) {
    os << cell;
    return;
  }
  os << '"';
  for (const char c : cell) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

std::ofstream open_for_write(const std::filesystem::path& path) {
  std::ofstream os(path);
  check(os.is_open(), "cannot write " + path.string());
  return os;
}

}  // namespace

void write_csv_row(std::ostream& os, const std::vector<std::string>& row) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i != 0) os << ',';
    write_csv_cell(os, row[i]);
  }
  os << '\n';
}

RunExporter::RunExporter(ExportOptions options, std::string tool)
    : options_(std::move(options)), tool_(std::move(tool)) {
  if (!active()) return;
  std::filesystem::create_directories(options_.dir);
  if (options_.trace) tracer().enable(true);
}

RunExporter::~RunExporter() {
  try {
    finish();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
    // Destructors must not throw; explicit finish() reports errors.
  }
}

void RunExporter::annotate(const std::string& key, const std::string& value) {
  if (!active()) return;
  annotations_.emplace_back(key, value);
}

void RunExporter::record_artifact(const std::string& file,
                                  const std::string& kind,
                                  const std::string& description,
                                  std::size_t rows) {
  Json entry = Json::object();
  entry.set("file", file);
  entry.set("kind", kind);
  if (!description.empty()) entry.set("description", description);
  if (kind == "table_csv" || kind == "table_json") entry.set("rows", rows);
  artifacts_.push(std::move(entry));
}

void RunExporter::add_table(const std::string& stem,
                            const std::string& description,
                            const std::vector<std::string>& header,
                            const std::vector<std::vector<std::string>>& rows) {
  if (!options_.csv && !options_.json) return;
  std::vector<std::string> columns;
  columns.reserve(header.size());
  for (const auto& h : header) columns.push_back(sanitize_column(h));

  if (options_.csv) {
    const std::string file = stem + ".csv";
    auto os = open_for_write(options_.dir / file);
    write_csv_row(os, columns);
    for (const auto& r : rows) write_csv_row(os, r);
    record_artifact(file, "table_csv", description, rows.size());
  }
  if (options_.json) {
    Json doc = Json::object();
    doc.set("schema_version", kSchemaVersion);
    doc.set("table", stem);
    if (!description.empty()) doc.set("description", description);
    Json cols = Json::array();
    for (const auto& c : columns) cols.push(c);
    doc.set("columns", std::move(cols));
    Json out_rows = Json::array();
    for (const auto& r : rows) {
      Json row = Json::object();
      for (std::size_t i = 0; i < r.size() && i < columns.size(); ++i) {
        row.set(columns[i], typed_cell(r[i]));
      }
      out_rows.push(std::move(row));
    }
    doc.set("rows", std::move(out_rows));
    const std::string file = stem + ".json";
    auto os = open_for_write(options_.dir / file);
    doc.dump(os, 1);
    os << '\n';
    record_artifact(file, "table_json", description, rows.size());
  }
}

void RunExporter::add_json(const std::string& stem,
                           const std::string& description, const Json& doc) {
  if (!options_.json) return;
  const std::string file = stem + ".json";
  auto os = open_for_write(options_.dir / file);
  doc.dump(os, 1);
  os << '\n';
  record_artifact(file, "json", description, doc.size());
}

std::filesystem::path RunExporter::finish() {
  if (!active() || finished_) return {};
  finished_ = true;

  if (options_.json && !metrics().empty()) {
    Json doc = Json::object();
    doc.set("schema_version", kSchemaVersion);
    doc.set("tool", tool_);
    const Json snap = metrics().snapshot();
    for (const auto& [key, value] : snap.members()) doc.set(key, value);
    auto os = open_for_write(options_.dir / "metrics.json");
    doc.dump(os, 1);
    os << '\n';
    record_artifact("metrics.json", "metrics",
                    "counter/gauge/histogram snapshot", 0);
  }
  if (options_.trace) {
    auto os = open_for_write(options_.dir / "trace.json");
    tracer().write_chrome_json(os);
    record_artifact("trace.json", "trace",
                    "Chrome trace_event timeline (open in Perfetto)", 0);
    tracer().enable(false);  // symmetric with the enable in the ctor
  }

  Json manifest = Json::object();
  manifest.set("schema_version", kSchemaVersion);
  manifest.set("tool", tool_);
  manifest.set("version", GPUCNN_VERSION);
  manifest.set("git", GPUCNN_GIT_DESCRIBE);
  Json run = Json::object();
#ifdef GPUCNN_SANITIZE_LABEL
  // Instrumented builds run ~2-20x slower; the annotation lets schema
  // validators (tools/validate_export.py) allow for distorted timings.
  run.set("sanitizer", GPUCNN_SANITIZE_LABEL);
#endif
  for (const auto& [key, value] : annotations_) run.set(key, value);
  manifest.set("run", std::move(run));
  manifest.set("artifacts", artifacts_);

  const auto path = options_.dir / "manifest.json";
  auto os = open_for_write(path);
  manifest.dump(os, 1);
  os << '\n';
  return path;
}

}  // namespace gpucnn::obs
