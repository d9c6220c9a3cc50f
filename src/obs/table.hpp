// Fixed-width ASCII tables with CSV/JSON export, shared by every binary
// that prints results: the figure benches print the rows/series their
// paper figure reports; the serving and tuning tools print run summaries.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace gpucnn::obs {

class RunExporter;

/// A simple column-aligned table with a title, header row and data rows.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  Table& header(std::vector<std::string> cells);
  Table& row(std::vector<std::string> cells);

  /// Renders with column widths fitted to content.
  void print(std::ostream& os) const;

  /// Renders as RFC-4180-style CSV (quotes cells containing commas,
  /// quotes or newlines) for downstream plotting.
  void to_csv(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] const std::string& title() const { return title_; }
  [[nodiscard]] const std::vector<std::string>& header_cells() const {
    return header_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& data_rows()
      const {
    return rows_;
  }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Registers `table` with a run exporter under `<stem>.csv` / `<stem>.json`
/// (schema: docs/METRICS.md); the table's title becomes the artifact
/// description. No-op when the exporter is inactive.
void export_table(RunExporter& exporter, const Table& table,
                  const std::string& stem);

/// Formats a double with `digits` decimals.
[[nodiscard]] std::string fmt(double value, int digits = 1);
/// Formats a fraction as "12.3%".
[[nodiscard]] std::string fmt_percent(double fraction, int digits = 1);

}  // namespace gpucnn::obs
