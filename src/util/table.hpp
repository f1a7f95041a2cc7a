#pragma once

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace grads::util {

/// Simple column-oriented table used by the benchmark harnesses to print the
/// rows/series the paper's figures and tables report, plus a CSV form for
/// post-processing.
class Table {
 public:
  using Cell = std::variant<std::string, double, std::int64_t>;

  explicit Table(std::vector<std::string> columns);

  /// Appends a row; must have exactly one cell per column.
  void addRow(std::vector<Cell> row);

  std::size_t rows() const { return rows_.size(); }
  std::size_t cols() const { return columns_.size(); }

  /// Pretty-prints an aligned ASCII table.
  void print(std::ostream& os, const std::string& title = "") const;
  /// Writes RFC-4180-ish CSV (no embedded quotes supported in our data).
  void writeCsv(std::ostream& os) const;

 private:
  static std::string render(const Cell& c);

  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
};

}  // namespace grads::util
