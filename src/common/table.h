// Minimal fixed-width text-table printer. Every bench binary renders its
// paper table/figure through this so outputs are uniform and diffable.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/error.h"

namespace sgdrc {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void add_row(std::vector<std::string> row) {
    SGDRC_REQUIRE(row.size() == header_.size(),
                  "row width does not match header");
    rows_.push_back(std::move(row));
  }

  /// Format a double with the given precision.
  static std::string num(double v, int precision = 2) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
  }

  static std::string pct(double fraction, int precision = 1) {
    return num(fraction * 100.0, precision) + "%";
  }

  /// Write the table to stdout.
  void print() const {
    std::ostream& os = std::cout;
    std::vector<size_t> width(header_.size());
    for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    auto print_sep = [&] {
      os << '+';
      for (size_t c = 0; c < width.size(); ++c) {
        os << std::string(width[c] + 2, '-') << '+';
      }
      os << '\n';
    };
    auto print_row = [&](const std::vector<std::string>& row) {
      os << '|';
      for (size_t c = 0; c < row.size(); ++c) {
        os << ' ' << row[c] << std::string(width[c] - row[c].size() + 1, ' ')
           << '|';
      }
      os << '\n';
    };
    print_sep();
    print_row(header_);
    print_sep();
    for (const auto& row : rows_) print_row(row);
    print_sep();
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace sgdrc
