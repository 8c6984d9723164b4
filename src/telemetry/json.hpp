#pragma once

// The one JSON string escape/unescape pair behind every JSON writer and
// reader in the repo: the decision log, the Chrome trace exporter, the
// hardware-profile report and the fleet event log.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace apollo::telemetry {

/// Escape `text` for use between JSON double quotes: `"`, `\` and every
/// control character (\n, \r, \t by name, the rest as \u00XX).
[[nodiscard]] std::string json_escape(std::string_view text);

/// Decode the JSON string literal that opens at `text[pos]` (a `"`). On
/// success `pos` is one past the closing quote. Returns nullopt on a missing
/// or unterminated literal, a raw control character, or a bad escape
/// (including \u above 0x7F, which json_escape never writes).
[[nodiscard]] std::optional<std::string> json_unescape(std::string_view text, std::size_t& pos);

}  // namespace apollo::telemetry
