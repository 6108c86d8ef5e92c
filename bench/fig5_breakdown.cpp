/**
 * @file
 * Reproduces the paper's Figure 5: normalized GPU execution-time breakdown
 * (Busy/Comp/Data/Sync/Idle) for all 36 workloads.
 *
 * Static-traversal apps show the paper's five configurations (TG0, SG1,
 * SGR, SD1, SDR) normalized to TG0; CC shows DG1, DGR, DD1, DDR normalized
 * to DG1. Each app additionally reports the geometric-mean normalized
 * time of the empirical BEST and the model-PREDicted configurations
 * across its six inputs.
 *
 * The whole figure is one work-unit manifest (harness figureSet) executed
 * on the in-process Session executor via runManifest — the same units and
 * renderer the gga_worker/gga_merge sharded pipeline uses, so this binary
 * and a merged multi-worker run produce byte-identical tables.
 *
 * Usage: fig5_breakdown [--csv] [--full]
 *   --full sweeps all 12 (6 for CC) configurations instead of the figure
 *   subset when searching for BEST.
 * Environment: GGA_SCALE in (0,1] scales the inputs down for quick runs;
 * GGA_SESSION_THREADS > 1 widens the executor.
 */

#include <cstring>
#include <iostream>

#include "eval/run.hpp"
#include "harness/figures.hpp"
#include "harness/workloads.hpp"
#include "support/log.hpp"

int
main(int argc, char** argv)
{
    bool csv = false;
    bool full = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--csv"))
            csv = true;
        else if (!std::strcmp(argv[i], "--full"))
            full = true;
    }
    gga::setVerbose(true);

    gga::SessionOptions session_opts;
    session_opts.scale = gga::evaluationScale(); // sweeps honor GGA_SCALE
    session_opts.verboseRuns = true;
    gga::Session session(session_opts);

    try {
        const gga::FigureSet set =
            gga::figureSet("fig5", session.options().scale, full);
        const gga::ResultSet results =
            gga::runManifest(session, set.manifest);

        std::cout << "Figure 5: normalized execution-time breakdown per "
                     "workload\n(baseline: TG0 for static apps, DG1 for "
                     "CC; scale=" << session.options().scale
                  << ", session threads=" << session.threads()
                  << ")\n\n";
        std::cout << gga::renderFigure(set, results, csv);
    } catch (const std::exception& err) {
        GGA_FATAL(err.what());
    }
    return 0;
}
