/**
 * @file
 * gga_perfbench: runs one benchmark workload and writes its raw run
 * record (and, when tracing, its spans). perfbench/run.py builds this,
 * runs it, and reduces the record to the reported metrics.
 *
 * Usage: gga_perfbench --workload W --seed N --seconds S --trace 0|1
 *                      --record FILE [--spans FILE] [--work-dir DIR]
 *                      [--serve-bin PATH] [--setups K] [--cover-seeds]
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "gga_perfbench: %s\nusage: gga_perfbench --workload "
                 "sweep-fig5|sim-amz|serve-mixed --seed N --seconds S "
                 "--trace 0|1 --record FILE [--spans FILE] [--work-dir DIR] "
                 "[--serve-bin PATH] [--setups K] [--cover-seeds]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseU64(const char* flag, const char* text)
{
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-')
        usage(std::string(flag) + " wants a non-negative integer");
    return v;
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::Options opts;
    std::string recordPath, spansPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--workload" && hasValue) {
            opts.workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            opts.seed = parseU64("--seed", argv[++i]);
        } else if (arg == "--seconds" && hasValue) {
            opts.seconds = static_cast<double>(parseU64("--seconds", argv[++i]));
        } else if (arg == "--trace" && hasValue) {
            opts.trace = parseU64("--trace", argv[++i]) != 0;
        } else if (arg == "--setups" && hasValue) {
            opts.setups = static_cast<unsigned>(parseU64("--setups", argv[++i]));
        } else if (arg == "--record" && hasValue) {
            recordPath = argv[++i];
        } else if (arg == "--spans" && hasValue) {
            spansPath = argv[++i];
        } else if (arg == "--work-dir" && hasValue) {
            opts.workDir = argv[++i];
        } else if (arg == "--serve-bin" && hasValue) {
            opts.serveBin = argv[++i];
        } else if (arg == "--cover-seeds") {
            opts.coverSeeds = true;
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (recordPath.empty())
        usage("missing --record");

    perfbench::Tracer tracer(opts.trace);
    try {
        gga::Json record;
        if (opts.workload == "sweep-fig5")
            record = perfbench::runSweepFig5(opts, tracer);
        else if (opts.workload == "sim-amz")
            record = perfbench::runSimAmz(opts, tracer);
        else if (opts.workload == "serve-mixed")
            record = perfbench::runServeMixed(opts, tracer);
        else
            usage("unknown workload '" + opts.workload + "'");
        record.set("workload", gga::Json(opts.workload));
        record.set("seed", gga::Json(opts.seed));
        record.set("trace", gga::Json(opts.trace));
        gga::writeTextFile(recordPath, record.dump() + "\n");
        if (opts.trace && !spansPath.empty())
            tracer.dump(spansPath);
    } catch (const std::exception& err) {
        std::fprintf(stderr, "gga_perfbench: %s\n", err.what());
        return 1;
    }
    return 0;
}
