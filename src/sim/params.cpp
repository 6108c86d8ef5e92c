#include "sim/params.hpp"

#include "support/log.hpp"

namespace gga {

namespace {

bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/** 64 MiB of tag and LRU state; the paper's system models about 73K. */
constexpr std::uint64_t kMaxCacheLines = std::uint64_t{1} << 22;

} // namespace

std::optional<std::string>
SimParams::check() const
{
    const auto got = [](std::uint64_t v) {
        return ", got " + std::to_string(v);
    };
    if (numSms < 1 || numSms > 15)
        return "numSms must be 1 to 15, the 4x4 mesh minus the CPU node" +
               got(numSms);
    if (!isPow2(warpSize) || warpSize > kMaxWarpLanes)
        return "warpSize must be a power of two no larger than " +
               std::to_string(kMaxWarpLanes) + got(warpSize);
    if (threadBlockSize == 0 || threadBlockSize % warpSize != 0 ||
        threadBlockSize > 1024)
        return "threadBlockSize must be a multiple of warpSize, at most "
               "1024" +
               got(threadBlockSize);
    if (maxBlocksPerSm < 1)
        return std::string("maxBlocksPerSm must be at least 1");
    if (!isPow2(lineBytes) || lineBytes < 4)
        return "lineBytes must be a power of two of at least 4" +
               got(lineBytes);
    if (l2Banks != 16)
        return "l2Banks must be 16: the 4x4 mesh hosts one bank per node" +
               got(l2Banks);
    if (l1Mshrs < 1 || storeBufferEntries < 1)
        return std::string(
            "l1Mshrs and storeBufferEntries must be at least 1");
    if (dramChannels < 1)
        return std::string("dramChannels must be at least 1");
    if (relaxedAtomicWindow < 1)
        return std::string("relaxedAtomicWindow must be at least 1");
    // Cache geometry: whole sets, at least one per cache (or L2 bank),
    // byte sizes within the caches' 32-bit arithmetic, and a bounded
    // host footprint of 16 bytes per modelled line.
    const std::uint64_t l1_bytes = std::uint64_t{l1SizeKiB} * 1024;
    const std::uint64_t l2_bytes = std::uint64_t{l2SizeKiB} * 1024;
    if (l1_bytes > UINT32_MAX || l2_bytes > UINT32_MAX)
        return std::string("l1SizeKiB and l2SizeKiB must be under 4 GiB");
    const std::uint64_t l1_lines = l1_bytes / lineBytes;
    const std::uint64_t l2_bank_lines = l2_bytes / l2Banks / lineBytes;
    if (l1Assoc < 1 || l1_lines < l1Assoc || l1_lines % l1Assoc != 0)
        return "L1 of " + std::to_string(l1_lines) +
               " lines must split into whole sets of l1Assoc" + got(l1Assoc);
    if (l2Assoc < 1 || l2_bank_lines < l2Assoc ||
        l2_bank_lines % l2Assoc != 0)
        return "L2 bank of " + std::to_string(l2_bank_lines) +
               " lines must split into whole sets of l2Assoc" + got(l2Assoc);
    if (numSms * l1_lines + l2_bank_lines * l2Banks > kMaxCacheLines)
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
