#include "wsq/common/text_table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace wsq {

std::string FormatDouble(double value, int precision) {
  char buf[64];
  const int size = std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  if (size < static_cast<int>(sizeof(buf))) return std::string(buf, size);
  // Fixed notation of a huge value is long: DBL_MAX alone has 309 digits.
  std::string out(static_cast<size_t>(size), '\0');
  std::snprintf(out.data(), out.size() + 1, "%.*f", precision, value);
  return out;
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TextTable::AddNumericRow(const std::string& label,
                              const std::vector<double>& values,
                              int precision) {
  std::vector<std::string> row;
  row.reserve(values.size() + 1);
  row.push_back(label);
  for (double v : values) row.push_back(FormatDouble(v, precision));
  AddRow(std::move(row));
}

std::string TextTable::ToString() const {
  size_t cols = header_.size();
  for (const auto& row : rows_) cols = std::max(cols, row.size());

  std::vector<size_t> widths(cols, 0);
  auto widen = [&widths](const std::vector<std::string>& row) {
    for (size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  };
  widen(header_);
  for (const auto& row : rows_) widen(row);

  std::ostringstream out;
  auto emit = [&out, &widths](const std::vector<std::string>& row) {
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string cell = i < row.size() ? row[i] : "";
      out << cell << std::string(widths[i] - cell.size(), ' ');
      if (i + 1 < widths.size()) out << "  ";
    }
    out << '\n';
  };
  emit(header_);
  size_t total = 0;
  for (size_t w : widths) total += w;
  total += widths.empty() ? 0 : 2 * (widths.size() - 1);
  out << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
  return out.str();
}

}  // namespace wsq
