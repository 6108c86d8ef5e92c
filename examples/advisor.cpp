/**
 * @file
 * Advisor: the workload-driven specialization model as a command-line
 * tool. Given an input graph (a preset name or a MatrixMarket file) and an
 * application, it prints the taxonomy profile, the decision trace through
 * the Fig. 4 tree, and the recommended configuration — including under a
 * restricted design space (hardware without DRFrlx and/or DeNovo).
 *
 * Usage: example_advisor [GRAPH] [APP]
 *   GRAPH: AMZ|DCT|EML|OLS|RAJ|WNG or a path to a .mtx file (default RAJ)
 *   APP:   PR|SSSP|MIS|CLR|BC|CC (default PR)
 */

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "model/partial_tree.hpp"
#include "support/log.hpp"
#include "support/table.hpp"
#include "taxonomy/profile.hpp"

namespace {

std::shared_ptr<const gga::CsrGraph>
loadGraph(gga::Session& session, const std::string& name)
{
    if (const std::optional<gga::GraphPreset> p = gga::presetFromName(name))
        return session.graphs().get(*p);
    // MatrixMarket inputs resolve through the session's GraphStore like
    // presets do: cached by path, shared across concurrent users, and
    // usable in RunPlans (RunPlan::graphFile) and work units.
    std::cout << "loading MatrixMarket file " << name << "\n";
    return session.graphs().getFile(name);
}

} // namespace

int
main(int argc, char** argv)
{
    gga::setVerbose(false);
    gga::Session session;
    const std::string graph_name = argc > 1 ? argv[1] : "RAJ";
    const std::string app_name = argc > 2 ? argv[2] : "PR";
    const std::optional<gga::AppId> app = gga::appFromName(app_name);
    if (!app)
        GGA_FATAL("unknown app '", app_name, "'");

    const auto graph_ptr = loadGraph(session, graph_name);
    const gga::CsrGraph& graph = *graph_ptr;
    const gga::TaxonomyProfile profile = gga::profileGraph(graph);
    const gga::AlgoProperties& props = gga::algoProperties(*app);

    std::cout << "=== workload: " << app_name << " on "
              << graph_name << " (|V|=" << graph.numVertices()
              << ", |E|=" << graph.numEdges() << ") ===\n\n";

    gga::TextTable tax;
    tax.setHeader({"Metric", "Value", "Class"});
    tax.addRow({"Volume (KB/SM)", gga::fmtDouble(profile.volumeKb, 3),
                std::string(1, gga::levelChar(profile.volume))});
    tax.addRow({"ANL", gga::fmtDouble(profile.anl, 3), ""});
    tax.addRow({"ANR", gga::fmtDouble(profile.anr, 3), ""});
    tax.addRow({"Reuse", gga::fmtDouble(profile.reuse, 3),
                std::string(1, gga::levelChar(profile.reuseLevel))});
    tax.addRow({"Imbalance", gga::fmtDouble(profile.imbalance, 3),
                std::string(1, gga::levelChar(profile.imbalanceLevel))});
    std::cout << tax.toText() << "\n";

    std::cout << "algorithm: traversal=" << gga::traversalLabel(props.traversal)
              << " control=" << gga::preferenceLabel(props.control)
              << " information=" << gga::preferenceLabel(props.information)
              << "\n\n";

    std::vector<std::string> trace;
    const gga::SystemConfig full =
        gga::predictFullDesignSpace(profile, props, &trace);
    std::cout << "full design space decision trace:\n";
    for (const std::string& line : trace)
        std::cout << "  - " << line << "\n";
    std::cout << "=> recommended configuration: " << full.name() << " ("
              << gga::propLabel(full.prop) << " / " << gga::cohLabel(full.coh)
              << " / " << gga::conLabel(full.con) << ")\n\n";

    // Restricted hardware variants (paper Sec. IV-B).
    struct Restriction
    {
        const char* label;
        bool allowRlx;
        bool allowDeNovo;
    };
    for (const Restriction& rst :
         {Restriction{"no DRFrlx", false, true},
          Restriction{"no DeNovo", true, false},
          Restriction{"GPU-coherence DRF1 hardware", false, false}}) {
        gga::DesignSpaceRestriction r;
        r.allowDrfRlx = rst.allowRlx;
        r.allowDeNovo = rst.allowDeNovo;
        trace.clear();
        const gga::SystemConfig part =
            gga::predictPartialDesignSpace(profile, props, r, &trace);
        std::cout << "restricted (" << rst.label << "): " << part.name()
                  << "\n";
    }
    return 0;
}
