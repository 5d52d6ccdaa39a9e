#ifndef MBIAS_BASE_PARSE_HH
#define MBIAS_BASE_PARSE_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace mbias
{

/**
 * The one integer grammar of every user-supplied count, size and seed
 * (command-line flags and setup specs alike): a plain decimal in
 * [0, @p max] that starts with a digit — no sign, no blanks — and has
 * no trailing text.  Returns nothing for anything else, overflow
 * included; callers decide how to report it.
 */
std::optional<std::uint64_t>
parseDecimal(std::string_view text,
             std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

} // namespace mbias

#endif // MBIAS_BASE_PARSE_HH
