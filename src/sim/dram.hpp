/**
 * @file
 * DRAM model: fixed access latency plus per-channel bandwidth
 * (service-interval occupancy), hashed across channels by line address.
 */

#ifndef GGA_SIM_DRAM_HPP
#define GGA_SIM_DRAM_HPP

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/params.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace gga {

/** Channelized DRAM timing. */
class Dram
{
  public:
    explicit Dram(const SimParams& params)
        : latency_(params.dramLatency),
          interval_(params.dramServiceInterval),
          channelsPow2_(std::has_single_bit(params.dramChannels)),
          channelFree_(params.dramChannels, 0)
    {
    }

    /**
     * Access one line at time @p t; returns the completion time (when data
     * is available at the memory controller).
     */
    Cycles
    access(Cycles t, Addr line, bool is_write)
    {
        const std::uint64_t h = hashMix64(line);
        const std::size_t ch = channelsPow2_ ? h & (channelFree_.size() - 1)
                                             : h % channelFree_.size();
        const Cycles start = std::max(t, channelFree_[ch]);
        channelFree_[ch] = start + interval_;
        if (is_write) {
            ++writes_;
            return start + interval_; // posted write
        }
        ++reads_;
        return start + latency_;
    }

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }

  private:
    Cycles latency_;
    Cycles interval_;
    /** Pick channels by mask; otherwise by exact modulo. */
    bool channelsPow2_;
    std::vector<Cycles> channelFree_;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

} // namespace gga

#endif // GGA_SIM_DRAM_HPP
