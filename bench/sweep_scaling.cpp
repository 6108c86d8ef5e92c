/**
 * @file
 * Wall-clock scaling of a parallel sweep (buildSweepSpec -> runManifest
 * -> sweepFromResults): sweep one workload's full configuration space on
 * Sessions of increasing width,
 * verify every run is bit-identical to the serial sweep, and report the
 * speedup. The per-config simulations are independent, so on a
 * multi-core host the fan-out is embarrassingly parallel up to the
 * config count.
 *
 * Usage: sweep_scaling [APP] [GRAPH] [scale] [max_threads]
 *   APP   in {PR, SSSP, MIS, CLR, BC, CC}      (default MIS)
 *   GRAPH in {AMZ, DCT, EML, OLS, RAJ, WNG}    (default RAJ)
 *   scale in (0, 1]: graph size multiplier      (default 0.25)
 *   max_threads: highest pool size to measure   (default 8)
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "api/session.hpp"
#include "harness/sweep.hpp"
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

double
sweepSeconds(const gga::Workload& wl,
             const std::vector<gga::SystemConfig>& configs, double scale,
             unsigned threads, gga::SweepResult& out)
{
    gga::SessionOptions opts;
    opts.scale = scale;
    opts.threads = threads;
    gga::Session session(opts);
    const auto start = std::chrono::steady_clock::now();
    const gga::SweepSpec spec =
        gga::buildSweepSpec(wl, configs, gga::SimParams{}, scale);
    out = gga::sweepFromResults(
        spec, gga::runManifest(session, gga::manifestForSpecs({spec})));
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

bool
identical(const gga::SweepResult& a, const gga::SweepResult& b)
{
    if (a.results.size() != b.results.size() || a.best != b.best ||
        a.predicted != b.predicted || a.bestCycles != b.bestCycles ||
        a.predictedCycles != b.predictedCycles ||
        a.baselineCycles != b.baselineCycles)
        return false;
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        if (a.results[i].config != b.results[i].config ||
            a.results[i].run.cycles != b.results[i].run.cycles ||
            a.results[i].run.events != b.results[i].run.events)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    gga::setVerbose(false);
    gga::Session session;
    const std::string app_name = argc > 1 ? argv[1] : "MIS";
    const std::optional<gga::AppId> app = gga::appFromName(app_name);
    if (!app)
        GGA_FATAL("unknown app '", app_name, "'");
    const gga::GraphPreset preset = parsePreset(argc > 2 ? argv[2] : "RAJ");
    const double scale = argc > 3 ? std::atof(argv[3]) : 0.25;
    if (!(scale > 0.0 && scale <= 1.0))
        GGA_FATAL("scale must be in (0, 1], got '", argv[3], "'");
    const unsigned max_threads = static_cast<unsigned>(
        std::clamp<long>(argc > 4 ? std::atol(argv[4]) : 8, 1, 256));

    const bool dynamic = gga::algoProperties(*app).traversal ==
                         gga::TraversalKind::Dynamic;
    const auto configs = gga::allConfigs(dynamic);
    const gga::Workload wl{*app, preset};

    // Pre-build the graph so timings measure simulation only.
    const auto graph = session.graphs().get(preset, scale);
    std::cout << "sweep scaling: " << wl.name() << " x " << configs.size()
              << " configs (|V|=" << graph->numVertices()
              << ", |E|=" << graph->numEdges() << ", host cores="
              << std::thread::hardware_concurrency() << ")\n\n";

    gga::SweepResult serial;
    const double serial_s = sweepSeconds(wl, configs, scale, 1, serial);

    gga::TextTable table;
    table.setHeader({"Threads", "Seconds", "Speedup", "Identical"});
    table.addRow({"1", gga::fmtDouble(serial_s, 2), "1.00x", "-"});
    for (unsigned t = 2; t <= max_threads; t *= 2) {
        gga::SweepResult parallel;
        const double s = sweepSeconds(wl, configs, scale, t, parallel);
        table.addRow({std::to_string(t), gga::fmtDouble(s, 2),
                      gga::fmtDouble(serial_s / s, 2) + "x",
                      identical(serial, parallel) ? "yes" : "NO"});
        if (!identical(serial, parallel)) {
            std::cout << table.toText();
            GGA_FATAL("parallel sweep diverged from serial at ", t,
                      " threads");
        }
    }
    std::cout << table.toText();
    std::cout << "\nBEST=" << serial.best.name()
              << " PRED=" << serial.predicted.name()
              << " bestCycles=" << serial.bestCycles << "\n";
    return 0;
}
