/**
 * @file
 * gga_manifest: emit the serializable work-unit manifest of a figure.
 *
 * First step of the sharded evaluation pipeline:
 *
 *   gga_manifest fig5 --scale 0.1 --out fig5.json
 *   gga_worker --manifest fig5.json --shard 0/2 --out part0.json   (host A)
 *   gga_worker --manifest fig5.json --shard 1/2 --out part1.json   (host B)
 *   gga_merge --manifest fig5.json --render part0.json part1.json
 *
 * Usage: gga_manifest <fig5|fig6|partial> [--full] [--scale S] [--out FILE]
 *   --full   fig5 only: sweep the whole space for BEST, not the figure
 *            subset
 *   --scale  preset scale in (0, 1]; default GGA_SCALE (then 1.0)
 *   --out    output path; default <figure>_manifest.json
 */

#include <cstring>
#include <iostream>
#include <string>

#include "harness/figures.hpp"
#include "harness/workloads.hpp"
#include "support/log.hpp"
#include "support/parse.hpp"

int
main(int argc, char** argv)
{
    std::string figure;
    std::string out;
    double scale = 0.0;
    bool full = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--full")) {
            full = true;
        } else if (!std::strcmp(argv[i], "--scale") && i + 1 < argc) {
            scale = gga::parseScale("--scale", argv[++i]);
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out = argv[++i];
        } else if (argv[i][0] != '-' && figure.empty()) {
            figure = argv[i];
        } else {
            GGA_FATAL("unknown argument '", argv[i],
                      "'; usage: gga_manifest <fig5|fig6|partial> "
                      "[--full] [--scale S] [--out FILE]");
        }
    }
    if (figure.empty())
        GGA_FATAL("missing figure; usage: gga_manifest "
                  "<fig5|fig6|partial> [--full] [--scale S] [--out FILE]");
    if (full && figure != "fig5")
        GGA_FATAL("--full only applies to fig5; a ", figure,
                  " manifest would silently cover the figure subset");
    if (scale == 0.0)
        scale = gga::evaluationScale();
    if (out.empty())
        out = figure + "_manifest.json";

    try {
        const gga::FigureSet set = gga::figureSet(figure, scale, full);
        set.manifest.save(out);
        std::cout << "wrote " << out << ": " << set.manifest.size()
                  << " work units (" << figure << ", scale " << scale
                  << (set.full ? ", full space" : "") << ")\n";
    } catch (const std::exception& err) {
        GGA_FATAL(err.what());
    }
    return 0;
}
