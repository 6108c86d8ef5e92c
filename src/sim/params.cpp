#include "sim/params.hpp"

#include "support/log.hpp"

namespace gga {

namespace {

/** 64 MiB of tag and LRU state; the paper's system models about 73K. */
constexpr std::uint64_t kMaxCacheLines = std::uint64_t{1} << 22;

} // namespace

std::optional<std::string>
SimParams::check() const
{
    if (relaxedAtomicWindow < 1)
        return std::string("relaxedAtomicWindow must be at least 1");
    // Whole sets of l1Assoc ways, a byte size within the cache's 32-bit
    // arithmetic, and a bounded host footprint of 16 bytes per modelled
    // line.
    const std::uint64_t l1_bytes = std::uint64_t{l1SizeKiB} * 1024;
    if (l1_bytes > UINT32_MAX)
        return "l1SizeKiB must be under 4 GiB, got " +
               std::to_string(l1SizeKiB);
    const std::uint64_t l1_lines = l1_bytes / lineBytes;
    if (l1_lines < l1Assoc || l1_lines % l1Assoc != 0)
        return "L1 of " + std::to_string(l1_lines) +
               " lines must split into whole sets of " +
               std::to_string(l1Assoc) + " ways";
    constexpr std::uint64_t l2_lines =
        std::uint64_t{l2SizeKiB} * 1024 / lineBytes;
    if (numSms * l1_lines + l2_lines > kMaxCacheLines)
        return "the L1s and the L2 may model at most " +
               std::to_string(kMaxCacheLines) + " lines in all";
    return std::nullopt;
}

void
SimParams::validate() const
{
    const std::optional<std::string> why = check();
    GGA_ASSERT(!why, "unusable SimParams: ", why.value_or(""));
}

} // namespace gga
