/**
 * @file
 * 4x4 mesh network latency model (Garnet-inspired, paper Sec. V-C):
 * SMs occupy nodes 0-14, the CPU node 15, and one L2 bank sits on every
 * node. SM i and bank i both live on node i, so SM and bank ids are mesh
 * node ids. Latency is hop distance times per-hop latency plus a router
 * constant; bandwidth is modeled at the L2 bank and DRAM channel
 * endpoints.
 */

#ifndef GGA_SIM_NOC_HPP
#define GGA_SIM_NOC_HPP

#include <cstdint>

#include "sim/params.hpp"
#include "support/types.hpp"

namespace gga {

/** One-way message latency between mesh nodes @p a and @p b. */
constexpr Cycles
meshLatency(std::uint32_t a, std::uint32_t b)
{
    constexpr std::uint32_t kWidth = 4;
    const auto dist = [](std::uint32_t x, std::uint32_t y) {
        return x > y ? x - y : y - x;
    };
    const std::uint32_t hops =
        dist(a % kWidth, b % kWidth) + dist(a / kWidth, b / kWidth);
    return SimParams::nocRouterLatency + SimParams::nocPerHopLatency * hops;
}

} // namespace gga

#endif // GGA_SIM_NOC_HPP
