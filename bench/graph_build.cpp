/**
 * @file
 * Graph-construction benchmark: the cold-start cost a sharded worker
 * pays per input, for every preset at scale 1.0 —
 *
 *   synth_ref_ms      full synthesis, frozen v1 baseline
 *                     (reference/graph.hpp generateGraphReference: one
 *                     sequential stream)
 *   synth_parallel_ms full synthesis, current generator (SplitRng
 *                     phases + alias sampling + sharded dedup)
 *   build_serial_ms   CSR construction alone, frozen std::sort path
 *                     (reference/graph.hpp buildReferenceSort)
 *   build_parallel_ms CSR construction alone, counting-sort path
 *   snapshot_load_ms  checksummed .csrbin load, Copy mode (one read into
 *                     a heap image)
 *   mmap_load_ms      checksummed .csrbin load, Mmap mode (zero-copy)
 *
 * The current paths' timings are the best of three repetitions; the v1
 * baseline and the snapshot save run once.
 * Every preset runs at one thread and at --threads (default: the
 * GGA_SESSION_THREADS resolution). scripts/bench_gates.py runs this five
 * times with --threads 4 and gates the medians of the largest preset's
 * 4-thread row: build_speedup >= 2, synth_speedup >= 2.5, mmap_load_ms
 * <= snapshot_load_ms, and load_vs_rebuild (mmap load vs parallel
 * synthesis — the two fast paths a worker chooses between) >= 2. Every
 * timed variant except the v1 baseline (whose output intentionally
 * differs) is asserted byte-identical before the numbers are written —
 * a fast wrong build would be worse than a slow right one.
 *
 * Usage: graph_build --json OUT [--threads T]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generator.hpp"
#include "graph/presets.hpp"
#include "graph/snapshot.hpp"
#include "reference/graph.hpp"
#include "support/log.hpp"
#include "support/parallel.hpp"
#include "support/parse.hpp"

namespace {

constexpr double kScale = 1.0;
constexpr int kReps = 3;

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

struct Row
{
    std::string preset;
    unsigned threads = 1;
    std::uint64_t vertices;
    std::uint64_t edges;
    double synthRefMs;
    double synthParallelMs;
    double buildSerialMs;
    double buildParallelMs;
    double snapshotSaveMs;
    double snapshotLoadMs;
    double mmapLoadMs;

    double buildSpeedup() const { return buildSerialMs / buildParallelMs; }
    double synthSpeedup() const { return synthRefMs / synthParallelMs; }
    double loadVsRebuild() const { return synthParallelMs / mmapLoadMs; }
};

Row
benchPreset(gga::GraphPreset p, unsigned threads, const std::string& tmp_dir)
{
    Row row;
    row.preset = gga::presetName(p);
    row.threads = threads;
    const gga::GenSpec spec = gga::presetSpecScaled(p, kScale);

    // Full synthesis, as a cold-start worker without a snapshot pays it:
    // the current parallel generator (best of kReps, the number workers
    // live with) and the frozen v1 baseline (once — it only anchors the
    // speedup column). Their outputs differ by design, so the baseline
    // is sanity-checked on invariants rather than byte equality.
    gga::CsrGraph g;
    row.synthParallelMs = 1e100;
    for (int r = 0; r < kReps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        g = gga::generateGraph(spec, threads);
        row.synthParallelMs = std::min(row.synthParallelMs, msSince(start));
    }
    row.vertices = g.numVertices();
    row.edges = g.numEdges();
    {
        const auto start = std::chrono::steady_clock::now();
        const gga::CsrGraph ref = gga::generateGraphReference(spec, threads);
        row.synthRefMs = msSince(start);
        if (ref.numEdges() != g.numEdges() || !ref.isSymmetric())
            GGA_FATAL("reference synthesis broke its invariants on ",
                      row.preset);
    }

    // CSR construction alone: replay the canonical undirected pairs into
    // a builder and time both paths over the same input, best of kReps.
    gga::GraphBuilder builder(g.numVertices());
    for (gga::VertexId u = 0; u < g.numVertices(); ++u) {
        for (gga::VertexId v : g.neighbors(u)) {
            if (u <= v)
                builder.addEdge(u, v);
        }
    }
    row.buildSerialMs = 1e100;
    row.buildParallelMs = 1e100;
    gga::CsrGraph serial, parallel;
    for (int r = 0; r < kReps; ++r) {
        auto start = std::chrono::steady_clock::now();
        serial = gga::buildReferenceSort(builder, /*with_weights=*/true);
        row.buildSerialMs = std::min(row.buildSerialMs, msSince(start));

        builder.threads(threads);
        start = std::chrono::steady_clock::now();
        parallel = builder.build(/*with_weights=*/true);
        row.buildParallelMs = std::min(row.buildParallelMs, msSince(start));
    }
    if (!(serial == parallel) || !(parallel == g))
        GGA_FATAL("builder paths diverge on ", row.preset,
                  " — refusing to report timings for a wrong build");

    // Snapshot round trip, as a prebuilt-cache worker pays it.
    const std::string snap =
        tmp_dir + "/" + row.preset + "_bench.csrbin";
    auto start = std::chrono::steady_clock::now();
    gga::saveCsrSnapshot(snap, g);
    row.snapshotSaveMs = msSince(start);
    row.snapshotLoadMs = 1e100;
    row.mmapLoadMs = 1e100;
    for (int r = 0; r < kReps; ++r) {
        start = std::chrono::steady_clock::now();
        const gga::CsrGraph loaded =
            gga::loadCsrSnapshot(snap, gga::SnapshotLoadMode::Copy);
        row.snapshotLoadMs = std::min(row.snapshotLoadMs, msSince(start));
        if (!(loaded == g))
            GGA_FATAL("snapshot round trip diverges on ", row.preset);

        // The zero-copy path checksums the same bytes but skips the
        // heap allocation + copy; equality walks the mapped arrays, so
        // time only the load itself.
        start = std::chrono::steady_clock::now();
        const gga::CsrGraph mapped =
            gga::loadCsrSnapshot(snap, gga::SnapshotLoadMode::Mmap);
        row.mmapLoadMs = std::min(row.mmapLoadMs, msSince(start));
        if (!(mapped == g))
            GGA_FATAL("mmap snapshot load diverges on ", row.preset);
    }
    std::filesystem::remove(snap);

    std::fprintf(stderr,
                 "[bench] %s @ %.2f x%u: synth %.1f -> %.1fms (%.2fx), "
                 "build %.1f -> %.1fms (%.2fx), load %.1f -> %.1fms "
                 "mmap (%.1fx vs resynthesis)\n",
                 row.preset.c_str(), kScale, threads, row.synthRefMs,
                 row.synthParallelMs, row.synthSpeedup(), row.buildSerialMs,
                 row.buildParallelMs, row.buildSpeedup(),
                 row.snapshotLoadMs, row.mmapLoadMs, row.loadVsRebuild());
    return row;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out;
    unsigned threads = 0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            out = argv[++i];
        } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            // Strict parse: a typo'd thread count must not silently
            // record single-threaded numbers.
            threads = gga::parseFlag<unsigned>("--threads", argv[++i]);
        } else {
            GGA_FATAL("unknown argument '", argv[i],
                      "'; usage: graph_build --json OUT [--threads T]");
        }
    }
    if (out.empty())
        GGA_FATAL("missing --json OUT");
    gga::setVerbose(false);
    if (threads == 0)
        threads = gga::defaultThreads();

    const std::string tmp_dir =
        std::filesystem::temp_directory_path().string();
    // Each preset at one thread AND at the configured budget: the pair
    // of rows is the parallel path's scaling (identical work, so the
    // outputs cross-check for free).
    std::vector<Row> rows;
    for (gga::GraphPreset p : gga::kAllGraphPresets) {
        rows.push_back(benchPreset(p, 1, tmp_dir));
        if (threads != 1)
            rows.push_back(benchPreset(p, threads, tmp_dir));
    }

    // The gate row: the largest input (edge count decides) benched at
    // the configured thread budget.
    const Row* largest = &rows.front();
    for (const Row& r : rows) {
        if (r.threads == threads &&
            (largest->threads != threads || r.edges > largest->edges))
            largest = &r;
    }

    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr)
        GGA_FATAL("cannot write ", out);
    char stamp[64];
    const std::time_t t = std::time(nullptr);
    std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ",
                  std::gmtime(&t));
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"suite\": \"gga graph_build\",\n");
    std::fprintf(f, "  \"generated\": \"%s\",\n", stamp);
    std::fprintf(f, "  \"threads\": %u,\n", threads);
    std::fprintf(f, "  \"scale\": %g,\n", kScale);
    std::fprintf(f, "  \"largest_preset\": \"%s\",\n",
                 largest->preset.c_str());
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        std::fprintf(
            f,
            "    {\"preset\": \"%s\", \"threads\": %u, \"scale\": %g, "
            "\"vertices\": %llu, "
            "\"edges\": %llu, \"synth_ref_ms\": %.2f, "
            "\"synth_parallel_ms\": %.2f, \"synth_speedup\": %.2f, "
            "\"build_serial_ms\": %.2f, \"build_parallel_ms\": %.2f, "
            "\"build_speedup\": %.2f, \"snapshot_save_ms\": %.2f, "
            "\"snapshot_load_ms\": %.2f, \"mmap_load_ms\": %.2f, "
            "\"load_vs_rebuild\": %.1f}%s\n",
            r.preset.c_str(), r.threads, kScale,
            static_cast<unsigned long long>(r.vertices),
            static_cast<unsigned long long>(r.edges), r.synthRefMs,
            r.synthParallelMs, r.synthSpeedup(), r.buildSerialMs,
            r.buildParallelMs, r.buildSpeedup(), r.snapshotSaveMs,
            r.snapshotLoadMs, r.mmapLoadMs, r.loadVsRebuild(),
            i + 1 == rows.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::fprintf(stderr,
                 "[bench] wrote %s (%s synth %.2fx, build %.2fx, "
                 "load %.1fx)\n",
                 out.c_str(), largest->preset.c_str(),
                 largest->synthSpeedup(), largest->buildSpeedup(),
                 largest->loadVsRebuild());
    return 0;
}
