#include "support/parallel.hpp"

#include <cstdint>
#include <cstdlib>

#include "support/log.hpp"
#include "support/parse.hpp"

namespace gga {

unsigned
parseThreadCount(std::string_view text)
{
    bool too_large = false;
    const std::optional<std::uint64_t> count =
        parseUnsigned(text, kMaxThreads, &too_large);
    if (too_large) {
        GGA_WARN("thread count '", text, "' clamped to ", kMaxThreads);
        return kMaxThreads;
    }
    if (!count || *count == 0) {
        GGA_WARN("thread count '", text, "' is invalid; using 1");
        return 1;
    }
    return static_cast<unsigned>(*count);
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
