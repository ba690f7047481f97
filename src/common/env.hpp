/// \file
/// Strict parsers for numeric environment knobs.
///
/// Every numeric PASTA_* knob goes through these three functions.  Unset
/// or empty means `fallback`; anything else must be a plain number with
/// nothing before or after it.  Leading blanks and '+' are errors, and so
/// is '-' unless the range admits negatives: strtoull alone would read
/// PASTA_MEM_BYTES=-1 as 18446744073709551615 and arm an "unlimited minus
/// one" budget.  Malformed or out-of-range values throw PastaError naming
/// the variable, so a bad knob fails the run up front.
#pragma once

#include <cstdint>

namespace pasta {

/// Integer knob in [lo, hi].
long env_long(const char* name, long fallback, long lo, long hi);

/// Decimal knob in [lo, hi].
double env_double(const char* name, double fallback, double lo, double hi);

/// Byte count with an optional binary K/M/G suffix (case-insensitive).
std::uint64_t env_bytes(const char* name, std::uint64_t fallback);

}  // namespace pasta
