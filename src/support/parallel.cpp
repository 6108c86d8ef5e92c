#include "support/parallel.hpp"

#include <charconv>
#include <cstdint>
#include <cstdlib>

#include "support/log.hpp"

namespace gga {

unsigned
parseThreadCount(std::string_view text)
{
    std::uint64_t count = 0;
    const char* const last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), last, count);
    if (ptr != last || ec == std::errc::invalid_argument ||
        (ec == std::errc() && count == 0)) {
        GGA_WARN("thread count '", text, "' is invalid; using 1");
        return 1;
    }
    if (ec == std::errc::result_out_of_range || count > kMaxThreads) {
        GGA_WARN("thread count '", text, "' clamped to ", kMaxThreads);
        return kMaxThreads;
    }
    return static_cast<unsigned>(count);
}

unsigned
defaultThreads()
{
    static const unsigned threads = [] {
        const char* env = std::getenv("GGA_SESSION_THREADS");
        return env ? parseThreadCount(env) : 1u;
    }();
    return threads;
}

} // namespace gga
