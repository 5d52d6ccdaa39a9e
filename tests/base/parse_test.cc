/** @file Tests for parseDecimal, the integer grammar of user input. */
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "base/parse.hh"

namespace
{

using mbias::parseDecimal;

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

TEST(ParseDecimal, AcceptsPlainDecimalsUpToTheCap)
{
    EXPECT_EQ(parseDecimal("0", kMax), 0u);
    EXPECT_EQ(parseDecimal("007", kMax), 7u);
    EXPECT_EQ(parseDecimal("18446744073709551615", kMax), kMax);
    EXPECT_EQ(parseDecimal("2097152", 2097152), 2097152u);
}

TEST(ParseDecimal, RejectsSignsBlanksTextOverflowAndTheCap)
{
    for (const std::string bad :
         {"", "-1", "+1", " 1", "1 ", "5x", "x5", "0x10", "1.5", "1e3",
          "18446744073709551616", "99999999999999999999999"})
        EXPECT_FALSE(parseDecimal(bad, kMax)) << "'" << bad << "'";
    EXPECT_FALSE(parseDecimal("2097153", 2097152));
    // A view that stops before trailing text parses only what it holds.
    EXPECT_EQ(parseDecimal(std::string_view("12x").substr(0, 2), kMax),
              12u);
}

} // namespace
