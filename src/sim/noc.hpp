/**
 * @file
 * 4x4 mesh network latency model (Garnet-inspired, paper Sec. V-C):
 * SMs occupy nodes 0-14, the CPU node 15; one L2 bank per node. Latency is
 * hop distance times per-hop latency plus a router constant; bandwidth is
 * modeled at the L2 bank and DRAM channel endpoints.
 */

#ifndef GGA_SIM_NOC_HPP
#define GGA_SIM_NOC_HPP

#include <cstdint>
#include <cstdlib>

#include "sim/params.hpp"
#include "support/types.hpp"

namespace gga {

/** Mesh coordinates and latency queries. */
class MeshNoc
{
  public:
    static constexpr std::uint32_t kWidth = 4;
    static constexpr std::uint32_t kNodes = 16;

    /** Manhattan hop distance between two mesh nodes. */
    std::uint32_t
    hops(std::uint32_t a, std::uint32_t b) const
    {
        const std::int32_t ax = a % kWidth, ay = a / kWidth;
        const std::int32_t bx = b % kWidth, by = b / kWidth;
        return static_cast<std::uint32_t>(std::abs(ax - bx) +
                                          std::abs(ay - by));
    }

    /** One-way message latency between nodes @p a and @p b. */
    Cycles
    latency(std::uint32_t a, std::uint32_t b) const
    {
        return SimParams::nocRouterLatency +
               SimParams::nocPerHopLatency * hops(a, b);
    }

    /** Mesh node of an SM (SM i lives on node i). */
    std::uint32_t smNode(std::uint32_t sm_id) const { return sm_id; }

    /** Mesh node of an L2 bank (bank i lives on node i). */
    std::uint32_t bankNode(std::uint32_t bank) const { return bank; }
};

} // namespace gga

#endif // GGA_SIM_NOC_HPP
