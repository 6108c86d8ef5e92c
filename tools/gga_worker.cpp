/**
 * @file
 * gga_worker: execute manifest shards, either offline or connected.
 *
 * Offline (the original mode): execute one shard of a work-unit
 * manifest file and write the shard's ResultSet as JSON.
 *
 * Connected (--connect): register with a resident gga_serve instance,
 * pull shard assignments over HTTP, run each one, and push the parts
 * back — no files involved. Both modes run the same runManifest path,
 * so a connected worker's parts are bit-identical to offline shards.
 *
 * Workers are stateless: everything a unit needs (app, input, config,
 * hardware parameters, seed) is in the manifest, and the simulator is
 * deterministic, so any number of workers on any hosts produce parts
 * that merge bit-identically to a single in-process run. Execution fans
 * out on the in-process TaskPool executor (--threads).
 *
 * Usage: gga_worker --manifest FILE [--shard I/N] [--out FILE]
 *                   [common options]
 *        gga_worker --connect PORT [--name NAME] [--token T]
 *                   [--idle-exit-ms MS] [--poll-ms MS] [common options]
 *   --shard   this worker's round-robin slice; default 0/1 (the whole
 *             manifest)
 *   --out     output path; default part_<I>.json
 *   --connect  port of a local gga_serve to pull assignments from
 *   --token   worker auth token, when the server runs --worker-token
 *   --idle-exit-ms  exit after this long with no assignment (0 = never)
 *   A connected worker that cannot run a shard reports why and keeps
 *   polling. GGA_FAULTS=crash.worker.assignment=1 makes it die (exit 41)
 *   on its first assignment, which exercises the server's lease retry.
 *   common:
 *   --threads executor width; default GGA_SESSION_THREADS (then 1)
 *   --graph-budget-mb  LRU byte budget for cached input graphs, so many
 *             workers on one host don't each hold every graph
 *   --graph-cache  directory of prebuilt .csrbin snapshots (see
 *             gga_graphs); input graphs load from it instead of being
 *             re-synthesized at cold start. Default GGA_GRAPH_CACHE.
 */

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "eval/run.hpp"
#include "serve/worker_client.hpp"
#include "support/log.hpp"
#include "support/parse.hpp"

int
main(int argc, char** argv)
{
    std::string manifest_path;
    std::string out;
    std::size_t shard_index = 0;
    std::size_t shard_count = 1;
    unsigned threads = 0;
    std::size_t budget_mb = 0;
    std::string graph_cache;
    bool verbose = false;
    gga::WorkerClientOptions client;
    bool connect = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--manifest") && i + 1 < argc) {
            manifest_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--shard") && i + 1 < argc) {
            // Strict parse: a malformed index must not silently become
            // shard 0 and burn a whole shard's compute on the wrong
            // slice (the merge would only catch it as duplicates later).
            const std::string_view spec = argv[++i];
            const std::size_t slash = spec.find('/');
            const auto index =
                gga::parseUnsigned<std::size_t>(spec.substr(0, slash));
            const auto count =
                slash == std::string_view::npos
                    ? std::nullopt
                    : gga::parseUnsigned<std::size_t>(spec.substr(slash + 1));
            if (!index || !count)
                GGA_FATAL("--shard wants I/N, got '", spec, "'");
            shard_index = *index;
            shard_count = *count;
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out = argv[++i];
        } else if (!std::strcmp(argv[i], "--connect") && i + 1 < argc) {
            connect = true;
            client.port =
                gga::parseFlag<std::uint16_t>("--connect", argv[++i]);
        } else if (!std::strcmp(argv[i], "--name") && i + 1 < argc) {
            client.name = argv[++i];
        } else if (!std::strcmp(argv[i], "--token") && i + 1 < argc) {
            client.token = argv[++i];
        } else if (!std::strcmp(argv[i], "--idle-exit-ms") && i + 1 < argc) {
            client.idleExitMs =
                gga::parseFlag<unsigned>("--idle-exit-ms", argv[++i]);
        } else if (!std::strcmp(argv[i], "--poll-ms") && i + 1 < argc) {
            client.pollMs = gga::parseFlag<unsigned>("--poll-ms", argv[++i]);
        } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            threads =
                gga::parseFlag<unsigned>("--threads", argv[++i]);
        } else if (!std::strcmp(argv[i], "--graph-budget-mb") &&
                   i + 1 < argc) {
            budget_mb =
                gga::parseFlag<std::size_t>("--graph-budget-mb", argv[++i]);
        } else if (!std::strcmp(argv[i], "--graph-cache") && i + 1 < argc) {
            graph_cache = argv[++i];
        } else if (!std::strcmp(argv[i], "--verbose")) {
            verbose = true;
        } else {
            GGA_FATAL("unknown argument '", argv[i],
                      "'; usage: gga_worker --manifest FILE [--shard I/N] "
                      "[--out FILE] | --connect PORT "
                      "[--name NAME] [--token T] [--idle-exit-ms MS] "
                      "[--poll-ms MS]  plus [--threads T] "
                      "[--graph-budget-mb M] [--graph-cache DIR] "
                      "[--verbose]");
        }
    }
    if (connect == !manifest_path.empty())
        GGA_FATAL("need exactly one of --manifest FILE or --connect PORT");
    gga::setVerbose(verbose);

    gga::SessionOptions opts;
    opts.threads = threads;
    opts.verboseRuns = verbose;
    opts.graphBudgetBytes = budget_mb * 1024 * 1024;
    opts.graphCacheDir = graph_cache;

    try {
        gga::Session session(opts);
        if (connect) {
            const std::size_t posted =
                gga::runWorkerClient(session, client);
            std::cout << "posted " << posted << " part"
                      << (posted == 1 ? "" : "s") << " ("
                      << session.threads() << " threads)\n";
            return 0;
        }

        const gga::Manifest manifest = gga::Manifest::load(manifest_path);
        const gga::Manifest shard = manifest.shard(shard_index, shard_count);
        if (out.empty())
            out = "part_" + std::to_string(shard_index) + ".json";

        const gga::ResultSet results = gga::runManifest(session, shard);
        results.save(out);
        std::cout << "wrote " << out << ": " << results.size() << "/"
                  << manifest.size() << " units (shard " << shard_index
                  << "/" << shard_count << ", " << session.threads()
                  << " threads)\n";
    } catch (const std::exception& err) {
        GGA_FATAL(err.what());
    }
    return 0;
}
