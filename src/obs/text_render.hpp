// Text helpers shared by the orbtop and orbtrace renderers: JSON number
// formatting, JSON string escaping and fixed-width terminal table cells.
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>
#include <string_view>

namespace obs {

inline std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Escapes a JSON string body per RFC 8259, so one hostile name from the
/// wire cannot corrupt a whole export.
inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Fixed-width cell, left-aligned, truncated with no ellipsis (a terminal
/// table, not a report).
inline std::string cell(std::string text, std::size_t width) {
  if (text.size() > width) text.resize(width);
  text.append(width - text.size() + 1, ' ');
  return text;
}

}  // namespace obs
