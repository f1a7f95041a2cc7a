#include "util/table.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>

#include "util/error.hpp"

namespace grads::util {

Table::Table(std::vector<std::string> columns) : columns_(std::move(columns)) {
  GRADS_REQUIRE(!columns_.empty(), "Table: need at least one column");
}

void Table::addRow(std::vector<Cell> row) {
  GRADS_REQUIRE(row.size() == columns_.size(),
                "Table::addRow: wrong number of cells");
  rows_.push_back(std::move(row));
}

std::string Table::render(const Cell& c) {
  if (const auto* s = std::get_if<std::string>(&c)) return *s;
  if (const auto* i = std::get_if<std::int64_t>(&c)) return std::to_string(*i);
  const double d = std::get<double>(c);
  char buf[64];
  if (std::fabs(d) >= 1e6 || (d != 0.0 && std::fabs(d) < 1e-3)) {
    std::snprintf(buf, sizeof buf, "%.4g", d);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f", d);
  }
  return buf;
}

void Table::print(std::ostream& os, const std::string& title) const {
  if (!title.empty()) os << "== " << title << " ==\n";
  std::vector<std::size_t> width(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) width[c] = columns_[c].size();
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> r;
    r.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      r.push_back(render(row[c]));
      width[c] = std::max(width[c], r.back().size());
    }
    cells.push_back(std::move(r));
  }
  auto pad = [&](const std::string& s, std::size_t w) {
    std::string out = s;
    out.resize(w, ' ');
    return out;
  };
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    os << pad(columns_[c], width[c]) << (c + 1 < columns_.size() ? "  " : "\n");
  }
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    os << std::string(width[c], '-') << (c + 1 < columns_.size() ? "  " : "\n");
  }
  for (const auto& row : cells) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << pad(row[c], width[c]) << (c + 1 < row.size() ? "  " : "\n");
    }
  }
}

void Table::writeCsv(std::ostream& os) const {
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    os << columns_[c] << (c + 1 < columns_.size() ? "," : "\n");
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << render(row[c]) << (c + 1 < row.size() ? "," : "\n");
    }
  }
}

}  // namespace grads::util
