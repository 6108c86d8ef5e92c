/**
 * @file
 * Figure/table assembly over the evaluation pipeline.
 *
 * Each figure is (1) a FigureSet — the per-workload SweepSpecs plus the
 * deduplicated Manifest realizing them — built by figureSet(), and (2) a
 * renderer that turns any ResultSet covering that manifest into the
 * figure's text/CSV tables. The bench binaries run the manifest
 * in-process (runManifest) and render; the gga_worker/gga_merge CLIs run
 * shards out-of-process and render the merged parts — both produce
 * byte-identical tables because the units and the renderers are shared.
 */

#ifndef GGA_HARNESS_FIGURES_HPP
#define GGA_HARNESS_FIGURES_HPP

#include <string>
#include <vector>

#include "harness/sweep.hpp"
#include "support/table.hpp"

namespace gga {

/** A figure's sweeps and the manifest that executes them. */
struct FigureSet
{
    std::string figure; ///< "fig5" | "fig6" | "partial"
    double scale = 1.0;
    bool full = false; ///< fig5 --full: sweep the whole space for BEST
    /** One spec per workload, paper order (apps major, inputs minor). */
    std::vector<SweepSpec> specs;
    /** partial only: the no-DRFrlx restricted sweep of each workload. */
    std::vector<SweepSpec> restricted;
    /** partial only: the restricted model's pick per workload — computed
     *  at build time (and carried in manifest meta) so rendering merged
     *  results never needs to construct or profile an input graph. */
    std::vector<SystemConfig> partialPredicted;
    /** Deduplicated union of all spec units, with rendering meta. */
    Manifest manifest;
};

/**
 * Build @p figure ("fig5", "fig6", or "partial") at @p scale. fig5 and
 * fig6 share their units (the Fig. 5 sweep matrix; @p full widens the
 * BEST search to the whole space); "partial" adds the restricted
 * no-DRFrlx sweeps, deduplicated against the full ones. The manifest
 * meta records figure/scale/full so figureSetFromManifest can rebuild
 * the rendering structure from the serialized manifest alone. Throws
 * EvalError when @p scale cannot build one of the six presets
 * (GraphStore::presetError).
 */
FigureSet figureSet(const std::string& figure, double scale,
                    bool full = false,
                    const SimParams& params = SimParams{});

/**
 * Rebuild the FigureSet a serialized manifest was generated from (its
 * meta names figure/scale/full) and verify the rebuilt units match the
 * manifest exactly; throws EvalError on unknown meta or a mismatch
 * (e.g. a hand-edited unit list).
 */
FigureSet figureSetFromManifest(const Manifest& manifest);

/**
 * Render @p set from any ResultSet covering its manifest: the figure's
 * tables plus its summary footer, exactly as the corresponding bench
 * binary prints after its header line. Throws EvalError when a unit's
 * result is missing.
 */
std::string renderFigure(const FigureSet& set, const ResultSet& results,
                         bool csv);

/**
 * Append one row per configuration of @p sweep: normalized execution time
 * (to the workload's baseline) with the Busy/Comp/Data/Sync/Idle split,
 * tagging the BEST and PRED configurations.
 */
void addSweepRows(TextTable& table, const SweepResult& sweep);

/** Cells for one run: norm, busy%, comp%, data%, sync%, idle%. */
std::vector<std::string> breakdownCells(const RunResult& run,
                                        double baseline_cycles);

} // namespace gga

#endif // GGA_HARNESS_FIGURES_HPP
