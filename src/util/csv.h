// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Small CSV writer used by the benchmark harness to persist every series a
// paper figure needs, so plots can be regenerated outside the binary.

#ifndef MADNET_UTIL_CSV_H_
#define MADNET_UTIL_CSV_H_

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/status.h"

namespace madnet {

/// Streams rows of comma-separated values to a file. Fields containing
/// commas, quotes or newlines are quoted per RFC 4180.
class CsvWriter {
 public:
  /// Opens (truncates) `path` and writes the header row. Check Ok() before
  /// writing rows.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// True iff the file opened successfully and no write has failed since.
  bool Ok() const { return out_.good(); }

  /// The path the writer was opened with (for error reporting).
  const std::string& path() const { return path_; }

  /// Appends one row. The number of fields should match the header.
  void WriteRow(const std::vector<std::string>& fields);

  /// Convenience: formats arbitrary streamable values into one row.
  template <typename... Args>
  void Row(const Args&... args) {
    std::vector<std::string> fields;
    fields.reserve(sizeof...(args));
    (fields.push_back(ToField(args)), ...);
    WriteRow(fields);
  }

  /// Flushes and closes the file; returns the final I/O status.
  Status Close();

 private:
  template <typename T>
  static std::string ToField(const T& value) {
    std::ostringstream oss;
    oss << value;
    return oss.str();
  }

  static std::string Escape(const std::string& field);

  std::string path_;
  std::ofstream out_;
};

}  // namespace madnet

#endif  // MADNET_UTIL_CSV_H_
