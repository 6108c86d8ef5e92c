/**
 * @file
 * DRAM model: fixed access latency plus per-channel bandwidth
 * (service-interval occupancy), hashed across channels by line address.
 */

#ifndef GGA_SIM_DRAM_HPP
#define GGA_SIM_DRAM_HPP

#include <array>
#include <cstdint>

#include "sim/params.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace gga {

/** Channelized DRAM timing. */
class Dram
{
  public:
    /**
     * Access one line at time @p t; returns the completion time (when data
     * is available at the memory controller).
     */
    Cycles
    access(Cycles t, Addr line, bool is_write)
    {
        Cycles& free = channelFree_[hashMix64(line) &
                                    (SimParams::dramChannels - 1)];
        const Cycles start = std::max(t, free);
        free = start + SimParams::dramServiceInterval;
        if (is_write) {
            ++writes_;
            return free; // posted write
        }
        ++reads_;
        return start + SimParams::dramLatency;
    }

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }

  private:
    std::array<Cycles, SimParams::dramChannels> channelFree_{};
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace gga

#endif // GGA_SIM_DRAM_HPP
