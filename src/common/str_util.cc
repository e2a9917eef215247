#include "common/str_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

namespace dar {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

Result<double> ParseDouble(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) return Status::InvalidArgument("empty numeric field");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  // strtod also reports ERANGE for a subnormal result, which is the value;
  // only an overflow (inf) or an underflow past every double (0) is not.
  if (errno == ERANGE && (std::isinf(v) || v == 0)) {
    return Status::OutOfRange("numeric value out of range: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not a number: '" + buf + "'");
  }
  return v;
}

Result<int64_t> ParseInt(std::string_view s) {
  s = StripWhitespace(s);
  if (s.empty()) return Status::InvalidArgument("empty integer field");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::OutOfRange("integer out of range: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not an integer: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
}

std::string FormatDouble(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

std::string FormatDoubleExact(double v) {
  char buf[32];  // a shortest form has at most 24 characters
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, result.ptr);
}

}  // namespace dar
