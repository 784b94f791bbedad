#ifndef ADALSH_IO_CSV_H_
#define ADALSH_IO_CSV_H_

#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "util/status.h"

namespace adalsh {

/// Minimal CSV support for the CLI and dataset loaders: RFC-4180-style
/// quoting (fields containing the delimiter, quotes or newlines are wrapped
/// in double quotes; embedded quotes are doubled).

/// Parses one CSV record from `in` into `fields` (cleared first). Handles
/// quoted fields spanning newlines. Returns false at end of input; aborts
/// never; malformed quoting is reported via the status output.
struct CsvReader {
  /// `first_line` numbers the first line of `in` in error messages, for a
  /// reader over a slice of a longer input.
  explicit CsvReader(std::istream* in, char delimiter = ',',
                     size_t first_line = 1)
      : in_(in), delimiter_(delimiter), line_(first_line - 1) {}

  /// Reads the next row. Returns Ok(true) with fields filled, Ok(false) at
  /// EOF, or InvalidArgument on malformed quoting.
  StatusOr<bool> ReadRow(std::vector<std::string>* fields);

  /// 1-based line number of the last row read (for error messages).
  size_t line() const { return line_; }

 private:
  std::istream* in_;
  char delimiter_;
  size_t line_ = 0;
};

/// Writes one CSV row with proper quoting.
void WriteCsvRow(std::ostream* out, const std::vector<std::string>& fields,
                 char delimiter = ',');

}  // namespace adalsh

#endif  // ADALSH_IO_CSV_H_
