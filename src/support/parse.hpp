/**
 * @file
 * The strict parse of unsigned decimal numbers that come from outside the
 * process: command-line flags, query strings, HTTP headers and
 * environment variables.
 */

#ifndef GGA_SUPPORT_PARSE_HPP
#define GGA_SUPPORT_PARSE_HPP

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

#include "support/log.hpp"

namespace gga {

/**
 * The whole of @p text as an unsigned decimal no greater than @p max: one
 * or more digits and nothing else, so no sign, space or prefix. nullopt
 * otherwise. @p too_large, when given, says whether the text was all
 * digits but above @p max (64-bit overflow included).
 */
inline std::optional<std::uint64_t>
parseUnsigned(std::string_view text, std::uint64_t max,
              bool* too_large = nullptr)
{
    std::uint64_t v = 0;
    const char* const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    const bool digits = ptr == end && ec != std::errc::invalid_argument;
    const bool fits = ec == std::errc() && v <= max;
    if (too_large)
        *too_large = digits && !fits;
    if (!digits || !fits)
        return std::nullopt;
    return v;
}

/** parseUnsigned up to the largest value of @p T. */
template <typename T>
std::optional<T>
parseUnsigned(std::string_view text)
{
    const std::optional<std::uint64_t> v =
        parseUnsigned(text, std::numeric_limits<T>::max());
    if (!v)
        return std::nullopt;
    return static_cast<T>(*v);
}

/** parseUnsigned<T> of a command-line flag's value; fatal otherwise. */
template <typename T>
T
parseFlag(std::string_view flag, std::string_view text)
{
    const std::optional<T> v = parseUnsigned<T>(text);
    if (!v)
        GGA_FATAL(flag, " wants a whole number from 0 to ",
                  std::numeric_limits<T>::max(), ", got '", text, "'");
    return *v;
}

} // namespace gga

#endif // GGA_SUPPORT_PARSE_HPP
