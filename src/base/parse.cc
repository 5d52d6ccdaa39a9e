#include "base/parse.hh"

#include <charconv>

namespace mbias
{

std::optional<std::uint64_t>
parseDecimal(std::string_view text, std::uint64_t max)
{
    // from_chars takes neither blanks nor a sign for an unsigned type,
    // so a first character that is not a digit fails here.
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || v > max)
        return std::nullopt;
    return v;
}

} // namespace mbias
