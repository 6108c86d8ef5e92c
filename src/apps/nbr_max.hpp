/**
 * @file
 * The neighbor-max round MIS and CLR share: every undecided vertex learns
 * the largest priority among its undecided neighbors, by an atomicMax at
 * the target (push) or a gather at the source (pull). What the app does
 * with it, join the set or take the round's color, stays in the app.
 */

#ifndef GGA_APPS_NBR_MAX_HPP
#define GGA_APPS_NBR_MAX_HPP

#include <cstdint>
#include <string>

#include "apps/app.hpp"

namespace gga {

/** The part of an app's state one neighbor-max round reads and writes. */
struct NbrMaxView
{
    std::string app; ///< kernel name prefix: "<app>.reset", ...
    const CsrGraph& g;
    const GraphBuffers& gb;
    const DeviceBuffer<std::uint32_t>& status; ///< MIS state, CLR color
    std::uint32_t undecided; ///< the status of a still undecided vertex
    const DeviceBuffer<std::uint32_t>& pri;
    DeviceBuffer<std::uint32_t>& nbrMax;
};

/**
 * Unique deterministic 32-bit priority: hashed bits above, the id below
 * (Pannotia-style int priorities, made collision-free). @p salt perturbs
 * the hashed bits only, so uniqueness still comes from the id bits. MIS
 * salts with the run's seed and CLR with the seed and its own constant;
 * seed 0 reproduces the unseeded paper runs.
 */
std::uint32_t priorityOf(VertexId v, VertexId n, std::uint64_t salt);

/**
 * Launch one round on @p gpu: "<app>.reset" zeroes nbrMax of the
 * undecided vertices, then "<app>.prop.push" or "<app>.prop.pull" leaves
 * in it the largest pri of their undecided neighbors.
 */
void launchNbrMaxRound(Gpu& gpu, const NbrMaxView& view, bool push);

} // namespace gga

#endif // GGA_APPS_NBR_MAX_HPP
