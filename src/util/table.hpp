#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace spider {

/// Plain-text table formatter used by the bench binaries to print the rows
/// of each paper table/figure. Columns are sized to their widest cell and
/// separated by two spaces; a rule is drawn under the header.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision.
  static std::string num(double v, int precision = 2);
  static std::string percent(double fraction, int precision = 1);

  void print(std::ostream& os) const;
  std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace spider
