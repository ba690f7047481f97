#include "common/env.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/error.hpp"

namespace pasta {

namespace {

/// The knob's text, or nullptr when unset/empty.
const char*
knob(const char* name)
{
    const char* s = std::getenv(name);
    return s && *s ? s : nullptr;
}

/// True when `s` starts like a plain number: a digit (or '.' when
/// `fraction`), after a '-' only when the range admits negatives.  This
/// is what rejects blanks, '+', and stray signs that strto* would skip.
bool
plain_start(const char* s, bool negative_ok, bool fraction)
{
    if (negative_ok && *s == '-')
        ++s;
    return std::isdigit(static_cast<unsigned char>(*s)) ||
           (fraction && *s == '.');
}

}  // namespace

long
env_long(const char* name, long fallback, long lo, long hi)
{
    const char* s = knob(name);
    if (!s)
        return fallback;
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(s, &end, 10);
    PASTA_CHECK_MSG(plain_start(s, lo < 0, false) && *end == '\0' &&
                        errno != ERANGE && v >= lo && v <= hi,
                    name << "='" << s << "' must be an integer in [" << lo
                         << ", " << hi << "]");
    return v;
}

double
env_double(const char* name, double fallback, double lo, double hi)
{
    const char* s = knob(name);
    if (!s)
        return fallback;
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    PASTA_CHECK_MSG(plain_start(s, lo < 0, true) && *end == '\0' &&
                        v >= lo && v <= hi,
                    name << "='" << s << "' must be a number in [" << lo
                         << ", " << hi << "]");
    return v;
}

std::uint64_t
env_bytes(const char* name, std::uint64_t fallback)
{
    const char* s = knob(name);
    if (!s)
        return fallback;
    char* end = nullptr;
    errno = 0;
    const std::uint64_t v = std::strtoull(s, &end, 10);
    bool ok = plain_start(s, false, false) && errno != ERANGE;
    std::uint64_t scale = 1;
    switch (*end) {
      case 'k': case 'K': scale = 1ULL << 10, ++end; break;
      case 'm': case 'M': scale = 1ULL << 20, ++end; break;
      case 'g': case 'G': scale = 1ULL << 30, ++end; break;
      default: break;
    }
    ok = ok && *end == '\0' && v <= ~std::uint64_t{0} / scale;
    PASTA_CHECK_MSG(ok, name << "='" << s
                             << "' must be a byte count with an optional "
                                "K/M/G suffix");
    return v * scale;
}

}  // namespace pasta
