#include "obs/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "obs/exporter.hpp"

namespace gpucnn::obs {

Table& Table::header(std::vector<std::string> cells) {
  header_ = std::move(cells);
  return *this;
}

Table& Table::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  const auto widen = [&](const std::vector<std::string>& cells) {
    if (cells.size() > widths.size()) widths.resize(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  widen(header_);
  for (const auto& r : rows_) widen(r);

  os << "\n== " << title_ << " ==\n";
  const auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      os << std::left << std::setw(static_cast<int>(widths[i]) + 2)
         << cells[i];
    }
    os << '\n';
  };
  if (!header_.empty()) {
    print_row(header_);
    std::size_t total = 0;
    for (const auto w : widths) total += w + 2;
    os << std::string(total, '-') << '\n';
  }
  for (const auto& r : rows_) print_row(r);
}

void Table::to_csv(std::ostream& os) const {
  if (!header_.empty()) write_csv_row(os, header_);
  for (const auto& r : rows_) write_csv_row(os, r);
}

void export_table(RunExporter& exporter, const Table& table,
                  const std::string& stem) {
  exporter.add_table(stem, table.title(), table.header_cells(),
                     table.data_rows());
}

std::string fmt(double value, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << value;
  return os.str();
}

std::string fmt_percent(double fraction, int digits) {
  return fmt(fraction * 100.0, digits) + "%";
}

}  // namespace gpucnn::obs
