/**
 * @file
 * Quickstart: profile a graph with the taxonomy, ask the specialization
 * model for the best configuration, and run the workload through the
 * Plan/Session API — the complete public-API round trip in ~60 lines.
 */

#include <iostream>

#include "api/session.hpp"
#include "model/decision_tree.hpp"
#include "support/log.hpp"
#include "support/table.hpp"
#include "taxonomy/profile.hpp"

int
main()
{
    gga::setVerbose(false);

    // 1. A session scoped to quarter-scale inputs so the quickstart
    //    finishes in seconds; graphs are built once and cached in the
    //    thread-safe GraphStore.
    gga::SessionOptions opts;
    opts.scale = 0.25;
    gga::Session session(opts);

    // 2. The input: the RAJ-like preset (circuit: heavy-tailed degrees,
    //    high intra-thread-block locality).
    const auto graph = session.graphs().get(gga::GraphPreset::Raj, 0.25);
    std::cout << "graph: |V|=" << graph->numVertices()
              << " |E|=" << graph->numEdges() << "\n";

    // 3. Profile its structure (paper Sec. III-A) and ask the model for
    //    the best configuration for PageRank on it.
    const gga::TaxonomyProfile profile = gga::profileGraph(*graph);
    std::cout << "taxonomy: volume=" << gga::fmtDouble(profile.volumeKb, 1)
              << "KB(" << gga::levelChar(profile.volume) << ")"
              << " reuse=" << gga::fmtDouble(profile.reuse, 3) << "("
              << gga::levelChar(profile.reuseLevel) << ")"
              << " imbalance=" << gga::fmtDouble(profile.imbalance, 3)
              << "(" << gga::levelChar(profile.imbalanceLevel) << ")\n";

    const gga::AppId app = gga::AppId::Pr;
    const gga::SystemConfig predicted =
        gga::predictFullDesignSpace(profile, gga::algoProperties(app));
    std::cout << "model prediction for " << gga::appName(app)
              << ": " << predicted.name() << " ("
              << gga::propLabel(predicted.prop) << " / "
              << gga::cohLabel(predicted.coh) << " / "
              << gga::conLabel(predicted.con) << ")\n";

    // 4. Run the prediction, and a baseline, on the simulated system.
    const gga::RunOutcome pred_run = session.run(gga::RunPlan{}
                                                     .app(app)
                                                     .graph(gga::GraphPreset::Raj)
                                                     .config(predicted));
    const gga::RunOutcome base_run = session.run(
        gga::RunPlan{}.app(app).graph(gga::GraphPreset::Raj).config("TG0"));

    std::cout << "predicted config:  " << pred_run.result.cycles
              << " cycles ("
              << gga::describeBreakdown(pred_run.result.breakdown) << ")\n";
    std::cout << "baseline TG0:      " << base_run.result.cycles
              << " cycles ("
              << gga::describeBreakdown(base_run.result.breakdown) << ")\n";
    std::cout << "speedup over TG0:  "
              << gga::fmtDouble(double(base_run.result.cycles) /
                                    pred_run.result.cycles, 2)
              << "x\n";

    // 5. Typed functional outputs: both runs computed the same ranks.
    const gga::PrOutput* ranks = pred_run.pr();
    double sum = 0.0;
    for (float r : ranks->ranks)
        sum += r;
    std::cout << "pagerank mass (should be ~1): " << gga::fmtDouble(sum, 4)
              << " over " << ranks->ranks.size() << " vertices\n";
    return 0;
}
