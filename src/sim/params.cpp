#include "sim/params.hpp"

#include "support/log.hpp"

namespace gga {

namespace {

bool
isPow2(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

void
SimParams::validate() const
{
    GGA_ASSERT(numSms >= 1 && numSms <= 15,
               "numSms must fit the 4x4 mesh minus the CPU node");
    GGA_ASSERT(isPow2(warpSize), "warp size must be a power of two");
    GGA_ASSERT(threadBlockSize % warpSize == 0,
               "thread block size must be a warp multiple");
    GGA_ASSERT(isPow2(lineBytes), "line size must be a power of two");
    GGA_ASSERT(l2Banks == 16, "the 4x4 mesh hosts exactly 16 L2 banks");
    GGA_ASSERT(maxBlocksPerSm >= 1, "need at least one resident block");
    GGA_ASSERT(dramChannels >= 1, "need at least one DRAM channel");
    GGA_ASSERT(relaxedAtomicWindow >= 1, "relaxed window must be >= 1");
    const std::uint64_t l1_lines =
        static_cast<std::uint64_t>(l1SizeKiB) * 1024 / lineBytes;
    GGA_ASSERT(l1_lines % l1Assoc == 0, "L1 geometry must divide evenly");
    const std::uint64_t l2_lines = static_cast<std::uint64_t>(l2SizeKiB) *
                                   1024 / lineBytes / l2Banks;
    GGA_ASSERT(l2_lines % l2Assoc == 0, "L2 geometry must divide evenly");
}

} // namespace gga
