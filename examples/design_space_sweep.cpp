/**
 * @file
 * Example: sweep one workload (application + input graph) across the full
 * hardware/software design space and print the execution-time breakdown
 * of every configuration, normalized to the baseline (TG0, or DG1 for CC)
 * — one workload's worth of the paper's Figure 5.
 *
 * The whole space is enumerated as a work-unit Manifest and executed on
 * the session executor (eval runManifest) — the same serializable units
 * the gga_worker/gga_merge sharded pipeline runs, so the table is
 * identical to a serial run() loop at any thread count (and to any
 * sharding of the same manifest).
 *
 * Usage: example_design_space_sweep [APP] [GRAPH] [scale] [threads]
 *   APP     in {PR, SSSP, MIS, CLR, BC, CC}    (default PR)
 *   GRAPH   in {AMZ, DCT, EML, OLS, RAJ, WNG}  (default RAJ)
 *   scale   in (0, 1]: graph size multiplier    (default 0.25)
 *   threads: executor width                     (default
 *            GGA_SESSION_THREADS, then 1)
 */

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "eval/run.hpp"
#include "support/log.hpp"
#include "support/table.hpp"

namespace {

gga::GraphPreset
parsePreset(const std::string& name)
{
    for (gga::GraphPreset p : gga::kAllGraphPresets) {
        if (gga::presetName(p) == name)
            return p;
    }
    GGA_FATAL("unknown graph '", name, "'");
}

} // namespace

int
main(int argc, char** argv)
{
    gga::setVerbose(false);
    gga::SessionOptions opts;
    if (argc > 4)
        opts.threads = static_cast<unsigned>(
            std::clamp<long>(std::atol(argv[4]), 1, 256));
    gga::Session session(opts);
    const std::string app_name = argc > 1 ? argv[1] : "PR";
    const std::optional<gga::AppId> app = gga::appFromName(app_name);
    if (!app)
        GGA_FATAL("unknown app '", app_name, "'");
    const gga::GraphPreset preset =
        parsePreset(argc > 2 ? argv[2] : "RAJ");
    const double scale = argc > 3 ? std::atof(argv[3]) : 0.25;

    const auto graph = session.graphs().get(preset, scale);
    std::cout << "workload: " << app_name << " on "
              << gga::presetName(preset) << " x" << scale << "  (|V|="
              << graph->numVertices() << ", |E|=" << graph->numEdges()
              << ")\n\n";

    // Table III's traversal column picks this app's design space (12
    // static / 6 dynamic configurations).
    const auto configs = gga::allConfigs(
        gga::algoProperties(*app).traversal == gga::TraversalKind::Dynamic);

    // One work unit per design point, all in flight on the session
    // executor.
    gga::Manifest manifest;
    for (const gga::SystemConfig& cfg : configs) {
        gga::WorkUnit unit;
        unit.app = *app;
        unit.preset = preset;
        unit.scale = scale;
        unit.config = cfg;
        manifest.add(std::move(unit));
    }
    const gga::ResultSet results = gga::runManifest(session, manifest);

    gga::TextTable table;
    table.setHeader({"Config", "Cycles", "Norm", "Busy", "Comp", "Data",
                     "Sync", "Idle", "Kernels"});
    double baseline = 0.0;
    for (std::size_t i = 0; i < manifest.size(); ++i) {
        const gga::SystemConfig& cfg = configs[i];
        const gga::RunResult& r =
            results.at(manifest.units()[i].key()).run;
        if (baseline == 0.0)
            baseline = static_cast<double>(r.cycles);
        const double total = r.breakdown.total();
        table.addRow({cfg.name(), std::to_string(r.cycles),
                      gga::fmtDouble(r.cycles / baseline, 3),
                      gga::fmtPct(r.breakdown.busy / total),
                      gga::fmtPct(r.breakdown.comp / total),
                      gga::fmtPct(r.breakdown.data / total),
                      gga::fmtPct(r.breakdown.sync / total),
                      gga::fmtPct(r.breakdown.idle / total),
                      std::to_string(r.kernels)});
    }
    std::cout << table.toText();
    return 0;
}
