/**
 * @file
 * The strict parses of numbers that come from outside the process:
 * command-line flags, query strings, HTTP headers and environment
 * variables.
 */

#ifndef GGA_SUPPORT_PARSE_HPP
#define GGA_SUPPORT_PARSE_HPP

#include <charconv>
#include <cmath>
#include <cstddef>
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

/**
 * parseUnsigned of a command-line flag's value, up to @p max (at most
 * T's largest value); fatal otherwise, naming the flag.
 */
template <typename T>
T
parseFlag(std::string_view flag, std::string_view text,
          std::uint64_t max = std::numeric_limits<T>::max())
{
    const std::optional<std::uint64_t> v = parseUnsigned(text, max);
    if (!v)
        GGA_FATAL(flag, " wants a whole number from 0 to ", max, ", got '",
                  text, "'");
    return static_cast<T>(*v);
}

/** parseFlag of a size in MiB, as bytes: fatal past what size_t holds. */
inline std::size_t
parseMebibyteFlag(std::string_view flag, std::string_view text)
{
    return parseFlag<std::size_t>(flag, text, SIZE_MAX >> 20) << 20;
}

/**
 * The whole of @p text as a finite number no less than 0, in
 * std::from_chars's locale-free general form: digits with an optional
 * fraction and exponent ("0.25", "1", "1e-3") and nothing else, so no
 * sign, space, hex, "inf" or "nan". nullopt otherwise, or when the value
 * is out of double's range. Callers check their own range.
 */
inline std::optional<double>
parseNonNegative(std::string_view text)
{
    if (text.starts_with('-'))
        return std::nullopt;
    double v = 0.0;
    const char* const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v))
        return std::nullopt;
    return v;
}

/**
 * parseNonNegative of a preset scale, which must be in (0, 1]; fatal
 * otherwise, naming @p name (a flag or an environment variable).
 */
inline double
parseScale(std::string_view name, std::string_view text)
{
    const std::optional<double> v = parseNonNegative(text);
    if (!v || *v <= 0.0 || *v > 1.0)
        GGA_FATAL(name, " must be in (0, 1], got '", text, "'");
    return *v;
}

} // namespace gga

#endif // GGA_SUPPORT_PARSE_HPP
