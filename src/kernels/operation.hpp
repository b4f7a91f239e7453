// operation.hpp — parsing of the `operation` string in the enhanced
// MPI-IO call.
//
// Paper Table I: MPI_File_read_ex(..., char *operation, ...). We encode an
// operation as "<kernel>" or "<kernel>:k1=v1,k2=v2", e.g.
//   "sum"
//   "gaussian2d:width=1024"
//   "histogram:bins=32,lo=0,hi=1"
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace dosas::kernels {

struct OperationSpec {
  std::string kernel;                       ///< registry name
  std::map<std::string, std::string> args;  ///< kernel parameters

  /// Parse "<kernel>[:k=v[,k=v]...]". Whitespace is not trimmed; empty
  /// kernel names, empty keys, and malformed pairs are rejected.
  static Result<OperationSpec> parse(const std::string& text);

  /// Canonical text form (round-trips through parse()).
  std::string to_string() const;

  /// Typed argument accessors with defaults.
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;

  bool operator==(const OperationSpec&) const = default;
};

/// Kernel name of an operation string, without parsing its parameters: the
/// text up to the first ':' ("gaussian2d:width=1024" -> "gaussian2d"). It
/// names the request class of the stage.* and kernel_mibps.* metrics.
inline std::string_view operation_kernel(std::string_view operation) {
  return operation.substr(0, operation.find(':'));
}

}  // namespace dosas::kernels
