/**
 * @file
 * gga_serve: the resident analytics service. Accepts RunPlans and eval
 * manifests over HTTP (see src/serve/server.hpp for the endpoint
 * schema), executes them on an in-process Session executor or fans them
 * out to connected gga_worker --connect processes, and serves status,
 * streamed results, rendered figure tables, and /stats telemetry.
 *
 * Usage: gga_serve [--port P] [--port-file FILE] [--threads T]
 *                  [--max-queued-per-tenant N] [--lease-ms MS]
 *                  [--retry-base-ms MS] [--retry-cap-ms MS]
 *                  [--max-attempts N] [--tick-ms MS] [--state-dir DIR]
 *                  [--worker-token T] [--rate-per-tenant N]
 *                  [--io-timeout-ms MS] [--drain-ms MS]
 *                  [--graph-budget-mb M] [--graph-cache DIR] [--verbose]
 *   --port       listen port on 127.0.0.1; 0 picks an ephemeral port
 *                (default 7421)
 *   --port-file  write the bound port to FILE once listening — the
 *                rendezvous for scripts that start with --port 0
 *   --threads    local-job executor width; default GGA_SESSION_THREADS
 *   --max-queued-per-tenant  admission bound (HTTP 429 past it)
 *   --lease-ms / --retry-base-ms / --retry-cap-ms / --max-attempts
 *                remote-shard lease and capped-exponential-retry policy
 *   --tick-ms    lease expiry scan period
 *   --state-dir  durable job journal; on restart unfinished jobs resume
 *                and completed remote shards are never re-executed
 *   --worker-token  shared secret the worker endpoints require
 *                (X-GGA-Worker-Token header), else 401
 *   --rate-per-tenant  sustained POST /v1/jobs rate per tenant
 *                (jobs/sec; 0 = unlimited) -> 429 + Retry-After past it
 *   --io-timeout-ms  per-connection socket read deadline (slow-loris
 *                defense; 0 = none; default 30000)
 *   --drain-ms   how long shutdown waits for in-flight requests
 *   --graph-budget-mb / --graph-cache  as in gga_worker (a budget
 *                above 17592186044415 MiB exits 1)
 *
 * Runs until SIGINT/SIGTERM, then drains and exits 0. Deterministic
 * fault injection for tests: set GGA_FAULTS (see src/support/faults.hpp).
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "api/graph_store.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"
#include "support/log.hpp"
#include "support/parse.hpp"

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}


} // namespace

int
main(int argc, char** argv)
{
    gga::ServiceOptions opts;
    std::string port_file;
    bool verbose = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--port") && i + 1 < argc) {
            opts.port = gga::parseFlag<std::uint16_t>("--port", argv[++i]);
        } else if (!std::strcmp(argv[i], "--port-file") && i + 1 < argc) {
            port_file = argv[++i];
        } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            opts.session.threads =
                gga::parseFlag<unsigned>("--threads", argv[++i]);
        } else if (!std::strcmp(argv[i], "--max-queued-per-tenant") &&
                   i + 1 < argc) {
            opts.maxQueuedPerTenant = gga::parseFlag<std::size_t>(
                "--max-queued-per-tenant", argv[++i]);
            if (opts.maxQueuedPerTenant == 0)
                GGA_FATAL("--max-queued-per-tenant must be at least 1");
        } else if (!std::strcmp(argv[i], "--lease-ms") && i + 1 < argc) {
            opts.retry.leaseMs =
                gga::parseFlag<unsigned>("--lease-ms", argv[++i]);
        } else if (!std::strcmp(argv[i], "--retry-base-ms") &&
                   i + 1 < argc) {
            opts.retry.retryBaseMs =
                gga::parseFlag<unsigned>("--retry-base-ms", argv[++i]);
        } else if (!std::strcmp(argv[i], "--retry-cap-ms") &&
                   i + 1 < argc) {
            opts.retry.retryCapMs =
                gga::parseFlag<unsigned>("--retry-cap-ms", argv[++i]);
        } else if (!std::strcmp(argv[i], "--max-attempts") &&
                   i + 1 < argc) {
            opts.retry.maxAttempts =
                gga::parseFlag<unsigned>("--max-attempts", argv[++i]);
            if (opts.retry.maxAttempts == 0)
                GGA_FATAL("--max-attempts must be at least 1");
        } else if (!std::strcmp(argv[i], "--tick-ms") && i + 1 < argc) {
            opts.tickMs = gga::parseFlag<unsigned>("--tick-ms", argv[++i]);
            if (opts.tickMs == 0)
                GGA_FATAL("--tick-ms must be at least 1");
        } else if (!std::strcmp(argv[i], "--state-dir") && i + 1 < argc) {
            opts.stateDir = argv[++i];
        } else if (!std::strcmp(argv[i], "--worker-token") &&
                   i + 1 < argc) {
            opts.workerToken = argv[++i];
        } else if (!std::strcmp(argv[i], "--rate-per-tenant") &&
                   i + 1 < argc) {
            const char* text = argv[++i];
            const std::optional<double> rate = gga::parseNonNegative(text);
            if (!rate)
                GGA_FATAL("--rate-per-tenant wants a finite number >= 0, "
                          "got '", text, "'");
            opts.ratePerTenant = *rate;
        } else if (!std::strcmp(argv[i], "--io-timeout-ms") &&
                   i + 1 < argc) {
            opts.ioTimeoutMs =
                gga::parseFlag<unsigned>("--io-timeout-ms", argv[++i]);
        } else if (!std::strcmp(argv[i], "--drain-ms") && i + 1 < argc) {
            opts.drainMs = gga::parseFlag<unsigned>("--drain-ms", argv[++i]);
        } else if (!std::strcmp(argv[i], "--graph-budget-mb") &&
                   i + 1 < argc) {
            gga::GraphStore::instance().setBudgetBytes(
                gga::parseMebibyteFlag("--graph-budget-mb", argv[++i]));
        } else if (!std::strcmp(argv[i], "--graph-cache") && i + 1 < argc) {
            gga::GraphStore::instance().setCacheDir(argv[++i]);
        } else if (!std::strcmp(argv[i], "--verbose")) {
            verbose = true;
        } else {
            GGA_FATAL("unknown argument '", argv[i],
                      "'; usage: gga_serve [--port P] [--port-file FILE] "
                      "[--threads T] "
                      "[--max-queued-per-tenant N] "
                      "[--lease-ms MS] [--retry-base-ms MS] "
                      "[--retry-cap-ms MS] [--max-attempts N] "
                      "[--tick-ms MS] [--state-dir DIR] "
                      "[--worker-token T] [--rate-per-tenant N] "
                      "[--io-timeout-ms MS] [--drain-ms MS] "
                      "[--graph-budget-mb M] "
                      "[--graph-cache DIR] [--verbose]");
        }
    }
    gga::setVerbose(verbose);
    // A resident service wants progress lines even when unit-level
    // verbosity is off; GGA_INFORM is gated on setVerbose, so leave the
    // startup line to std::cout below.

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    try {
        gga::Service service(opts);
        service.start();
        std::cout << "gga_serve listening on 127.0.0.1:" << service.port()
                  << " (" << service.session().threads()
                  << " executor threads)" << std::endl;
        if (!port_file.empty())
            gga::writeTextFile(port_file,
                               std::to_string(service.port()) + "\n");
        while (!g_stop.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        std::cout << "gga_serve: shutting down" << std::endl;
        service.stop();
    } catch (const std::exception& err) {
        GGA_FATAL(err.what());
    }
    return 0;
}
