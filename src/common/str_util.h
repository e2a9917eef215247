#ifndef DAR_COMMON_STR_UTIL_H_
#define DAR_COMMON_STR_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace dar {

/// Splits `s` on `sep`, preserving empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Parses a double, rejecting trailing garbage and empty input
/// (InvalidArgument) and text past the largest double or below the
/// smallest subnormal (OutOfRange); a subnormal parses exactly.
Result<double> ParseDouble(std::string_view s);

/// Parses a signed decimal integer ("-7" is -7), rejecting trailing garbage
/// and empty input (InvalidArgument) and values past int64 (OutOfRange).
Result<int64_t> ParseInt(std::string_view s);

/// Formats `v` for display, at 6 significant digits with trailing zeros
/// trimmed ("3.5", "42", "0.125", "1234.57").
std::string FormatDouble(double v);

/// The shortest decimal text that parses back to exactly `v`
/// (std::to_chars: "0.1", "42", "1234.5678", "1e+300"), for text that is
/// read again, such as CSV and JSON.
std::string FormatDoubleExact(double v);

}  // namespace dar

#endif  // DAR_COMMON_STR_UTIL_H_
