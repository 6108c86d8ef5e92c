/**
 * @file
 * Reproduces the paper's Figure 6: for every workload where the
 * one-size-fits-all configuration (SGR; DGR for CC) is *not* the best,
 * compare SGR against the empirical BEST and the model-PREDicted
 * configurations, with execution-time breakdowns.
 *
 * The paper finds 12 such workloads ({MIS,PR,CLR}-OLS, {BC,MIS,PR}-RAJ,
 * CC-*) with 7%-87% (avg 44%) reduction over SGR.
 *
 * The figure is one work-unit manifest (harness figureSet) executed on
 * the in-process Session executor via runManifest — the same units and
 * renderer the gga_worker/gga_merge sharded pipeline uses.
 *
 * Usage: fig6_best_pred [--csv]
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
    const bool csv = argc > 1 && !std::strcmp(argv[1], "--csv");
    gga::setVerbose(true);

    gga::SessionOptions session_opts;
    session_opts.scale = gga::evaluationScale(); // sweeps honor GGA_SCALE
    session_opts.verboseRuns = true;
    gga::Session session(session_opts);

    try {
        const gga::FigureSet set =
            gga::figureSet("fig6", session.options().scale);
        const gga::ResultSet results =
            gga::runManifest(session, set.manifest);

        std::cout << "Figure 6: workloads where SGR (DGR for CC) is not "
                     "best\n(scale=" << session.options().scale
                  << ", session threads=" << session.threads()
                  << ")\n\n";
        std::cout << gga::renderFigure(set, results, csv);
    } catch (const std::exception& err) {
        GGA_FATAL(err.what());
    }
    return 0;
}
