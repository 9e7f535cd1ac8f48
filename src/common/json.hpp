// String escaping shared by every JSON writer: metrics and trace dumps,
// chunk sidecars and manifests, `pimsim list json`.
#pragma once

#include <string>

namespace pimsim {

/// `s` with quotes, backslashes, newlines and tabs escaped, ready to sit
/// between the quotes of a JSON string.
[[nodiscard]] inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c); break;
    }
  }
  return out;
}

}  // namespace pimsim
