#include "common/json.hpp"

#include <cstdio>

namespace pasta::json {

void
append_escaped(std::string& out, std::string_view s)
{
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

std::string
escaped(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    append_escaped(out, s);
    return out;
}

namespace {

int
hex_digit(char h)
{
    if (h >= '0' && h <= '9')
        return h - '0';
    if (h >= 'a' && h <= 'f')
        return h - 'a' + 10;
    if (h >= 'A' && h <= 'F')
        return h - 'A' + 10;
    return -1;
}

}  // namespace

bool
parse_string(const char*& p, const char* end, std::string& out)
{
    if (p >= end || *p != '"')
        return false;
    ++p;
    out.clear();
    while (p < end) {
        const char c = *p++;
        if (c == '"')
            return true;
        if (c != '\\') {
            out += c;
            continue;
        }
        if (p >= end)
            return false;
        switch (*p++) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (end - p < 4)
                return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
                const int d = hex_digit(*p++);
                if (d < 0)
                    return false;
                code = code << 4 | static_cast<unsigned>(d);
            }
            out += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default: return false;
        }
    }
    return false;  // unterminated
}

}  // namespace pasta::json
