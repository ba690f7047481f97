/// \file
/// The JSON string codec shared by every JSONL writer and reader in the
/// suite: the run journal, the metrics heartbeat, and the span exports.
///
/// Escaping: `"` and `\` get a backslash, newline/CR/tab their short
/// escapes, every other control character \u00XX; all other bytes pass
/// through.  Decoding accepts that plus the remaining JSON escapes;
/// a \u escape outside ASCII (never written here) decodes to '?'.
#pragma once

#include <string>
#include <string_view>

namespace pasta::json {

/// Appends `s`, escaped, to `out` (no surrounding quotes).
void append_escaped(std::string& out, std::string_view s);

/// `s` escaped, as a new string.
std::string escaped(std::string_view s);

/// Decodes one quoted JSON string starting at `p` (which must point at
/// the opening quote) into `out`, advancing `p` past the closing quote.
/// False on a malformed or unterminated string (a torn line).
bool parse_string(const char*& p, const char* end, std::string& out);

}  // namespace pasta::json
