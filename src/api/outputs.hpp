/**
 * @file
 * Typed per-application functional outputs for the Plan/Session API.
 *
 * Each application publishes a dedicated result struct; a run returns the
 * matching alternative inside the AppOutput variant, as owned, type-safe
 * values the app's runner moves out of its simulated buffers.
 */

#ifndef GGA_API_OUTPUTS_HPP
#define GGA_API_OUTPUTS_HPP

#include <cstdint>
#include <variant>
#include <vector>

namespace gga {

/** PageRank: final rank per vertex (sums to ~1). */
struct PrOutput
{
    bool operator==(const PrOutput&) const = default;
    std::vector<float> ranks;
};

/** SSSP: weighted distance from vertex 0 (UINT32_MAX = unreachable). */
struct SsspOutput
{
    bool operator==(const SsspOutput&) const = default;
    std::vector<std::uint32_t> dist;
};

/** Maximal independent set: per-vertex state (1 in set, 2 out). */
struct MisOutput
{
    bool operator==(const MisOutput&) const = default;
    std::vector<std::uint32_t> state;
};

/** Graph coloring: color index per vertex. */
struct ClrOutput
{
    bool operator==(const ClrOutput&) const = default;
    std::vector<std::uint32_t> colors;
};

/** Betweenness centrality pieces for source 0. */
struct BcOutput
{
    bool operator==(const BcOutput&) const = default;
    std::vector<double> delta;        ///< dependency accumulation
    std::vector<std::uint32_t> level; ///< BFS level (UINT32_MAX unreachable)
    std::vector<double> sigma;        ///< shortest-path counts
};

/** Connected components: representative label per vertex. */
struct CcOutput
{
    bool operator==(const CcOutput&) const = default;
    std::vector<std::uint32_t> labels;
};

/**
 * The functional output of one run. Holds std::monostate when output
 * collection was disabled (RunPlan::collectOutputs(false)).
 */
using AppOutput = std::variant<std::monostate, PrOutput, SsspOutput,
                               MisOutput, ClrOutput, BcOutput, CcOutput>;

} // namespace gga

#endif // GGA_API_OUTPUTS_HPP
