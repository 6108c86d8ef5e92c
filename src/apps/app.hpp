/**
 * @file
 * Shared application scaffolding: graph device buffers, run results, and
 * the one dispatch from an AppId to its runner.
 */

#ifndef GGA_APPS_APP_HPP
#define GGA_APPS_APP_HPP

#include <cstdint>

#include "apps/outputs.hpp"
#include "graph/csr.hpp"
#include "model/algo_props.hpp"
#include "model/config.hpp"
#include "sim/address_space.hpp"
#include "sim/gpu.hpp"
#include "sim/mem_stats.hpp"
#include "sim/stall.hpp"

namespace gga {

/** CSR arrays placed in the simulated address space. */
struct GraphBuffers
{
    GraphBuffers(AddressSpace& space, const CsrGraph& g);

    DeviceBuffer<EdgeId> rowOff;
    DeviceBuffer<VertexId> col;
    DeviceBuffer<std::uint32_t> weight; ///< empty when the graph is unweighted
};

/** Timing outcome of one workload run. */
struct RunResult
{
    Cycles cycles = 0;          ///< total simulated GPU time
    StallBreakdown breakdown;   ///< per-category cycles summed over SMs
    MemStats mem;               ///< memory-system counters
    std::uint32_t kernels = 0;  ///< kernel launches
    std::uint64_t events = 0;   ///< simulator events processed (diagnostics)

    /** Field-wise equality (shard-invariance / determinism tests). */
    bool operator==(const RunResult&) const = default;
};

/** Collect a RunResult from a finished Gpu. */
RunResult collectResult(Gpu& gpu);

/**
 * An app runner: runs the app on the graph under the configuration
 * (which must satisfy acceptsConfig) and, when the AppOutput* is
 * non-null, moves the app's output into it. The std::uint64_t is the
 * run's RNG seed (see RunPlan::seed): apps without stochastic choices
 * ignore it, and seed 0 reproduces the paper runs exactly (the
 * determinism goldens pin this).
 */
using AppRunner = RunResult(const CsrGraph&, const SystemConfig&,
                            const SimParams&, std::uint64_t, AppOutput*);

/** The six runners, one per app translation unit. */
AppRunner runPr, runSssp, runMis, runClr, runBc, runCc;

/** Run @p app through its runner. */
RunResult runApp(AppId app, const CsrGraph& g, const SystemConfig& cfg,
                 const SimParams& params, std::uint64_t seed,
                 AppOutput* out);

/** Iteration safety caps (deterministic termination with a warning). */
inline constexpr std::uint32_t kMaxSweeps = 4096;
inline constexpr std::uint32_t kPrIterations = 10;

} // namespace gga

#endif // GGA_APPS_APP_HPP
