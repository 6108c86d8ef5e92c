/**
 * @file
 * gga_graphs: prebuild (and verify) the binary CSR snapshot cache the
 * sharded evaluation pipeline loads its input graphs from.
 *
 * Prebuild once, then point every worker at the shared directory:
 *
 *   gga_manifest fig5 --full --out fig5.json
 *   gga_graphs --cache /shared/graphs --manifest fig5.json --threads 8
 *   gga_worker --manifest fig5.json --shard 0/8 --graph-cache /shared/graphs
 *
 * Workers then pay a checksummed binary load per input instead of the
 * full synthesis cost at every cold start.
 *
 * Usage: gga_graphs --cache DIR [--manifest FILE] [--presets A,B|all]
 *                   [--scale S] [--threads T] [--verify] [--force]
 *   --cache    snapshot directory (created if missing)
 *   --manifest prebuild exactly the graphs a manifest needs (file-path
 *              inputs are skipped — they already live on disk)
 *   --presets  comma-separated preset names, or "all"; default: all six
 *              when no manifest is given
 *   --scale    preset scale for --presets entries; default 1.0 (paper size)
 *   --threads  total thread budget, split between concurrent targets and
 *              per-build synthesis threads (pool width = min(T, targets),
 *              each build gets T/width); default
 *              GGA_BUILD_THREADS/GGA_SESSION_THREADS
 *   --verify   load every selected snapshot, rebuild from scratch at two
 *              different thread counts, and require all three byte-
 *              identical (exit 1 on any mismatch or unreadable snapshot)
 *              instead of writing anything
 *   --force    rebuild and overwrite snapshots that already load cleanly
 *
 * Targets run concurrently on a TaskPool; each target's log lines are
 * buffered and printed in target order, so the output reads the same at
 * every --threads value.
 */

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/graph_store.hpp"
#include "api/task_pool.hpp"
#include "eval/manifest.hpp"
#include "graph/builder.hpp"
#include "graph/generator.hpp"
#include "graph/presets.hpp"
#include "graph/snapshot.hpp"
#include "support/log.hpp"

namespace {

struct Target
{
    gga::GraphPreset preset;
    double scale;
};

/**
 * The scale the GraphStore will actually build and look up under: its
 * keys quantize to 1e-6 and builds use the quantized value, so the
 * snapshot file name must be derived from the same number — an
 * off-grid scale (1/3) would otherwise hash to a file no worker ever
 * opens, silently leaving the cache cold.
 */
double
canonicalScale(double scale)
{
    return static_cast<double>(gga::GraphStore::quantizeScale(scale)) /
           1e6;
}

std::optional<gga::GraphPreset>
parsePresetName(const std::string& name)
{
    for (gga::GraphPreset p : gga::kAllGraphPresets) {
        if (name == gga::presetName(p))
            return p;
    }
    return std::nullopt;
}

std::string
snapshotPathFor(const std::string& cache, const Target& t)
{
    const std::int64_t units = gga::GraphStore::quantizeScale(t.scale);
    const gga::GenSpec spec = gga::presetSpecScaled(t.preset, t.scale);
    return cache + "/" +
           gga::csrSnapshotFileName(gga::presetName(t.preset), units,
                                    gga::specContentHash(spec));
}

} // namespace

int
main(int argc, char** argv)
{
    std::string cache;
    std::string manifest_path;
    std::string presets_arg;
    double scale = 1.0;
    unsigned threads = 0;
    bool verify = false;
    bool force = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--cache") && i + 1 < argc) {
            cache = argv[++i];
        } else if (!std::strcmp(argv[i], "--manifest") && i + 1 < argc) {
            manifest_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--presets") && i + 1 < argc) {
            presets_arg = argv[++i];
        } else if (!std::strcmp(argv[i], "--scale") && i + 1 < argc) {
            const char* text = argv[++i];
            char* end = nullptr;
            scale = std::strtod(text, &end);
            if (end == text || *end != '\0' || scale <= 0.0 || scale > 1.0)
                GGA_FATAL("--scale wants a value in (0, 1], got '", text,
                          "'");
        } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            const char* text = argv[++i];
            char* end = nullptr;
            threads = static_cast<unsigned>(std::strtoul(text, &end, 10));
            if (end == text || *end != '\0' || text[0] == '-')
                GGA_FATAL("--threads wants a non-negative integer, got '",
                          text, "'");
        } else if (!std::strcmp(argv[i], "--verify")) {
            verify = true;
        } else if (!std::strcmp(argv[i], "--force")) {
            force = true;
        } else {
            GGA_FATAL("unknown argument '", argv[i],
                      "'; usage: gga_graphs --cache DIR [--manifest FILE] "
                      "[--presets A,B|all] [--scale S] [--threads T] "
                      "[--verify] [--force]");
        }
    }
    if (cache.empty())
        GGA_FATAL("missing --cache DIR");

    try {
        std::vector<Target> targets;
        if (!manifest_path.empty()) {
            const gga::Manifest manifest =
                gga::Manifest::load(manifest_path);
            std::size_t skipped_files = 0;
            for (const gga::Manifest::GraphInput& in :
                 manifest.graphInputs()) {
                if (in.preset)
                    targets.push_back(
                        Target{*in.preset, canonicalScale(in.scale)});
                else
                    ++skipped_files;
            }
            if (skipped_files > 0) {
                std::cout << "note: " << skipped_files
                          << " file input(s) skipped (already on disk)\n";
            }
        }
        if (!presets_arg.empty() ||
            (manifest_path.empty() && targets.empty())) {
            if (presets_arg.empty() || presets_arg == "all") {
                for (gga::GraphPreset p : gga::kAllGraphPresets)
                    targets.push_back(Target{p, canonicalScale(scale)});
            } else {
                std::size_t start = 0;
                while (start <= presets_arg.size()) {
                    const std::size_t comma =
                        presets_arg.find(',', start);
                    const std::string name = presets_arg.substr(
                        start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
                    const auto p = parsePresetName(name);
                    if (!p)
                        GGA_FATAL("unknown preset '", name,
                                  "' (want AMZ, DCT, EML, OLS, RAJ, WNG)");
                    targets.push_back(Target{*p, canonicalScale(scale)});
                    if (comma == std::string::npos)
                        break;
                    start = comma + 1;
                }
            }
        }
        if (targets.empty())
            GGA_FATAL("nothing to do: the manifest names no preset inputs "
                      "and no --presets were given");

        if (!verify)
            std::filesystem::create_directories(cache);

        // Split the thread budget: as many concurrent targets as the
        // budget (or the target list) allows, remaining threads to each
        // build. Generation is deterministic at every split, so this is
        // purely a wall-clock decision.
        const unsigned budget =
            threads ? threads : gga::defaultBuildThreads();
        const unsigned width = static_cast<unsigned>(std::min<std::size_t>(
            std::max(1u, budget), targets.size()));
        const unsigned per_build = std::max(1u, budget / width);

        struct Report
        {
            std::string out;
            std::string err;
            int failures = 0;
        };
        const auto process = [&cache, verify, force,
                              per_build](const Target& t) -> Report {
            Report r;
            std::ostringstream out;
            std::ostringstream err;
            const std::string path = snapshotPathFor(cache, t);
            const std::string label =
                std::string(gga::presetName(t.preset)) + " @ " +
                std::to_string(t.scale);
            if (verify) {
                try {
                    const gga::CsrGraph loaded = gga::loadCsrSnapshot(path);
                    // Rebuild at two different thread counts: catches a
                    // stale snapshot and a thread-count-dependent
                    // generator in one pass.
                    const unsigned alt = std::max(2u, per_build);
                    const gga::CsrGraph rebuilt =
                        gga::buildPresetScaled(t.preset, t.scale, 1);
                    const gga::CsrGraph rebuilt_alt =
                        gga::buildPresetScaled(t.preset, t.scale, alt);
                    if (!(rebuilt == rebuilt_alt)) {
                        err << "MISMATCH " << label
                            << ": fresh builds at 1 and " << alt
                            << " threads differ\n";
                        ++r.failures;
                    } else if (loaded == rebuilt) {
                        out << "verified " << label
                            << ": snapshot is byte-identical to fresh "
                               "builds at 1 and "
                            << alt << " threads (" << loaded.numEdges()
                            << " edges)\n";
                    } else {
                        err << "MISMATCH " << label << ": " << path
                            << " loads but differs from a fresh build\n";
                        ++r.failures;
                    }
                } catch (const gga::SnapshotError& e) {
                    err << "FAIL " << label << ": " << e.what() << "\n";
                    ++r.failures;
                }
                r.out = out.str();
                r.err = err.str();
                return r;
            }
            bool cached = false;
            if (!force) {
                try {
                    const gga::CsrGraph loaded = gga::loadCsrSnapshot(path);
                    out << "cached " << label << ": " << path << " ("
                        << loaded.numEdges() << " edges)\n";
                    cached = true;
                } catch (const gga::SnapshotError& e) {
                    // Missing is a routine cold cache; a present-but-
                    // unloadable file deserves a loud line before the
                    // rebuild overwrites it.
                    if (std::filesystem::exists(path))
                        err << "rejecting damaged snapshot for " << label
                            << ": " << e.what() << "; rebuilding\n";
                }
            }
            if (!cached) {
                const gga::CsrGraph built =
                    gga::buildPresetScaled(t.preset, t.scale, per_build);
                gga::saveCsrSnapshot(path, built);
                out << "wrote " << label << ": " << path << " ("
                    << built.numEdges() << " edges)\n";
            }
            r.out = out.str();
            r.err = err.str();
            return r;
        };

        int failures = 0;
        gga::TaskPool pool(gga::TaskPoolOptions{width});
        std::vector<std::future<Report>> reports;
        reports.reserve(targets.size());
        for (const Target& t : targets)
            reports.push_back(
                pool.submit([&process, t] { return process(t); }));
        for (std::future<Report>& f : reports) {
            const Report r = f.get();
            std::cout << r.out;
            std::cerr << r.err;
            failures += r.failures;
        }
        if (failures > 0) {
            std::cerr << failures << " snapshot(s) failed verification\n";
            return 1;
        }
    } catch (const std::exception& err) {
        GGA_FATAL(err.what());
    }
    return 0;
}
