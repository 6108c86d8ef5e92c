/**
 * @file
 * Flexible-system demo: the paper's headline motivation is hardware with
 * *flexible* coherence/consistency (e.g. Spandex) that reconfigures per
 * workload. This example contrasts three machines over a mixed workload
 * suite, all driven through the Plan/Session API:
 *
 *   fixed-SGR   — one-size-fits-all (best single static configuration)
 *   fixed-TG0   — conservative pull baseline
 *   flexible    — reconfigures per workload using the specialization model
 *
 * Usage: example_flexible_system [scale]   (default 0.25)
 */

#include <cstdlib>
#include <iostream>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "model/decision_tree.hpp"
#include "support/log.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "taxonomy/profile.hpp"

int
main(int argc, char** argv)
{
    gga::setVerbose(false);
    const double scale = argc > 1 ? std::atof(argv[1]) : 0.25;

    gga::SessionOptions opts;
    opts.scale = scale;
    opts.collectOutputs = false; // timing study only
    gga::Session session(opts);

    // A mixed suite: one balanced-local input, one imbalanced-local, one
    // scattered power-law — with apps of differing control/information.
    const std::vector<std::pair<gga::AppId, gga::GraphPreset>> suite = {
        {gga::AppId::Pr, gga::GraphPreset::Ols},
        {gga::AppId::Mis, gga::GraphPreset::Raj},
        {gga::AppId::Sssp, gga::GraphPreset::Eml},
        {gga::AppId::Clr, gga::GraphPreset::Dct},
    };

    gga::TextTable table;
    table.setHeader({"Workload", "FixedTG0", "FixedSGR", "Flexible",
                     "FlexConfig", "FlexVsSGR"});

    std::vector<double> tg0_norm, sgr_norm, flex_norm;
    for (const auto& [app, preset] : suite) {
        const auto graph = session.graphs().get(preset, scale);
        const gga::TaxonomyProfile profile = gga::profileGraph(*graph);
        const gga::SystemConfig chosen =
            gga::predictFullDesignSpace(profile, gga::algoProperties(app));

        const gga::RunPlan base = gga::RunPlan{}.app(app).graph(preset);
        const auto tg0 = session.run(gga::RunPlan(base).config("TG0"));
        const auto sgr = session.run(gga::RunPlan(base).config("SGR"));
        const auto flex = session.run(gga::RunPlan(base).config(chosen));

        const double baseline = static_cast<double>(tg0.result.cycles);
        tg0_norm.push_back(1.0);
        sgr_norm.push_back(sgr.result.cycles / baseline);
        flex_norm.push_back(flex.result.cycles / baseline);

        table.addRow({tg0.appName + "-" + tg0.graphName,
                      std::to_string(tg0.result.cycles),
                      std::to_string(sgr.result.cycles),
                      std::to_string(flex.result.cycles), chosen.name(),
                      gga::fmtDouble(double(sgr.result.cycles) /
                                         flex.result.cycles, 2) +
                          "x"});
    }

    std::cout << "Flexible coherence/consistency (Spandex-style) vs fixed "
                 "configurations\n(scale=" << scale << ")\n\n";
    std::cout << table.toText();
    std::cout << "\ngeomean normalized time (lower is better): TG0="
              << gga::fmtDouble(gga::geomean(tg0_norm), 3)
              << " SGR=" << gga::fmtDouble(gga::geomean(sgr_norm), 3)
              << " flexible=" << gga::fmtDouble(gga::geomean(flex_norm), 3)
              << "\n";
    return 0;
}
