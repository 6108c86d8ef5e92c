/**
 * @file
 * Design-space sweeps: run a workload across configuration sets, find the
 * empirical BEST, and pair it with the model's PRED.
 *
 * A sweep is a SweepSpec — an ordered configuration list (baseline and
 * the model's prediction appended when missing) plus the serializable
 * WorkUnits realizing it. Execution goes through the eval pipeline:
 *
 *   sweepFromResults(spec, runManifest(session, manifestForSpecs({spec})))
 *
 * reassembles a SweepResult from any ResultSet covering the spec's units
 * — in-process or merged from worker shards — bit-identically to a
 * serial run() loop.
 */

#ifndef GGA_HARNESS_SWEEP_HPP
#define GGA_HARNESS_SWEEP_HPP

#include <vector>

#include "api/session.hpp"
#include "eval/run.hpp"
#include "harness/workloads.hpp"
#include "model/decision_tree.hpp"
#include "taxonomy/profile.hpp"

namespace gga {

/** One configuration's outcome for a workload. */
struct ConfigResult
{
    SystemConfig config;
    RunResult run;
};

/** A full sweep of one workload. */
struct SweepResult
{
    Workload workload;
    std::vector<ConfigResult> results;
    SystemConfig best;       ///< lowest-cycle configuration in the sweep
    SystemConfig predicted;  ///< the model's choice (full design space)
    Cycles bestCycles = 0;
    Cycles predictedCycles = 0;
    Cycles baselineCycles = 0; ///< TG0 (DG1 for dynamic apps)

    const ConfigResult* find(const SystemConfig& cfg) const;
};

/**
 * The declarative shape of one workload's sweep: the configurations in
 * execution order (the caller's list, then the baseline when missing,
 * then the model's prediction when missing) and the WorkUnit realizing
 * each, so the sweep can run in-process or be shipped to workers through
 * a Manifest.
 */
struct SweepSpec
{
    Workload workload{};
    SystemConfig predicted;
    std::vector<SystemConfig> configs;
    std::vector<WorkUnit> units; ///< parallel to configs
};

/**
 * Build the spec for @p workload: append the baseline and the model's
 * prediction (computed here, via the GraphStore at @p scale) when the
 * caller's list lacks them, and realize each configuration as a WorkUnit
 * at @p scale. @p params is omitted from the units when it equals
 * SimParams{}, keeping unit keys canonical.
 */
SweepSpec buildSweepSpec(const Workload& workload,
                         std::vector<SystemConfig> configs,
                         const SimParams& params, double scale);

/**
 * Same, with the full-space prediction supplied by the caller instead of
 * computed — no graph build or profiling. Used when rebuilding a figure
 * from a serialized manifest whose meta already records the predictions
 * (so a merge/render host never has to construct the inputs).
 */
SweepSpec buildSweepSpec(const Workload& workload,
                         std::vector<SystemConfig> configs,
                         const SimParams& params, double scale,
                         const SystemConfig& predicted);

/**
 * Reassemble the SweepResult from any ResultSet covering the spec's
 * units (throws EvalError naming the first missing unit). Result order
 * is the spec's configuration order and the BEST tie-break is the first
 * minimum, so the outcome is identical no matter where or in how many
 * shards the units ran.
 */
SweepResult sweepFromResults(const SweepSpec& spec, const ResultSet& results);

/** The deduplicating union of the specs' units (shared meta untouched). */
Manifest manifestForSpecs(const std::vector<SweepSpec>& specs);

/** The baseline configuration a workload's Fig. 5 group normalizes to. */
SystemConfig baselineConfig(const Workload& workload);

/**
 * The model's prediction for a workload (full design space), profiling
 * the input through the GraphStore at @p scale (0 = the GGA_SCALE
 * evaluation scale) at hardware point @p params.
 */
SystemConfig predictWorkload(const Workload& workload,
                             const SimParams& params = SimParams{},
                             double scale = 0.0);

} // namespace gga

#endif // GGA_HARNESS_SWEEP_HPP
