#include "telemetry/json.hpp"

#include <cstdio>

namespace apollo::telemetry {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::optional<std::string> json_unescape(std::string_view text, std::size_t& pos) {
  if (pos >= text.size() || text[pos] != '"') return std::nullopt;
  std::string out;
  for (std::size_t i = pos + 1; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '"') {
      pos = i + 1;
      return out;
    }
    if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i == text.size()) return std::nullopt;
    switch (text[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (text.size() - i < 5) return std::nullopt;
        unsigned code = 0;
        for (std::size_t k = i + 1; k <= i + 4; ++k) {
          const char h = text[k];
          const int digit = h >= '0' && h <= '9'   ? h - '0'
                            : h >= 'a' && h <= 'f' ? h - 'a' + 10
                            : h >= 'A' && h <= 'F' ? h - 'A' + 10
                                                   : -1;
          if (digit < 0) return std::nullopt;
          code = code * 16 + static_cast<unsigned>(digit);
        }
        // json_escape writes \u only for control characters and passes
        // UTF-8 through raw, so only ASCII code points are accepted here.
        if (code >= 0x80) return std::nullopt;
        out += static_cast<char>(code);
        i += 4;
        break;
      }
      default: return std::nullopt;
    }
  }
  return std::nullopt;  // unterminated
}

}  // namespace apollo::telemetry
