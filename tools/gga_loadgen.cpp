/**
 * @file
 * gga_loadgen: closed-loop HTTP load generator for a live gga_serve.
 *
 * Drives a configurable mix of interactive clients (single-RunPlan jobs,
 * one in flight each) and batch clients (multi-unit manifest jobs)
 * against POST /v1/jobs + the long-poll status endpoint, and reports
 * served jobs/sec plus p50/p95/p99 end-to-end job latency per lane.
 *
 * Two phases run back to back over the same server:
 *
 *   fifo   every job is submitted at batch priority — one lane, so the
 *          small interactive jobs head-of-line-block behind manifest
 *          backlogs. This is the reproducible stand-in for the old
 *          single-FIFO executor.
 *   lanes  interactive jobs ride the interactive lane (the default for
 *          plan jobs); batch manifests stay on the batch lane.
 *
 * The JSON report (scripts/bench.sh serve -> BENCH_serve.json) carries
 * both phases, the /stats executor snapshot after each, and
 * interactive_p99_improvement = fifo p99 / lanes p99. The serve-load CI
 * job gates on the lanes phase: no failed jobs, and interactive p99
 * below batch p99.
 *
 * Usage: gga_loadgen --port P [--duration-s D] [--interactive N]
 *                    [--batch M] [--batch-units K] [--scale S]
 *                    [--batch-scale S] [--json OUT]
 *
 * Transport is the same one-shot httpRequest the worker client uses —
 * plain POSIX sockets, Connection: close, loopback only.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "eval/manifest.hpp"
#include "eval/work_unit.hpp"
#include "model/config.hpp"
#include "serve/http.hpp"
#include "support/json.hpp"
#include "support/log.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/** Strict non-negative integer argument parse; fatal on garbage. */
unsigned long
parseCount(const char* flag, const char* text)
{
    char* end = nullptr;
    const unsigned long v = std::strtoul(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-')
        GGA_FATAL(flag, " wants a non-negative integer, got '", text, "'");
    return v;
}

double
parseScale(const char* flag, const char* text)
{
    char* end = nullptr;
    const double s = std::strtod(text, &end);
    if (end == text || *end != '\0' || s <= 0.0 || s > 1.0)
        GGA_FATAL(flag, " wants a scale in (0, 1], got '", text, "'");
    return s;
}

struct Options
{
    std::uint16_t port = 0;
    double durationS = 10;
    unsigned interactiveClients = 4;
    unsigned batchClients = 2;
    unsigned batchUnits = 12;
    double scale = 0.05;      ///< interactive plan input scale
    double batchScale = 0.1;  ///< batch manifest input scale
    std::string jsonOut;
};

/** One client's closed-loop tally. */
struct ClientLog
{
    std::vector<double> latenciesMs;
    std::uint64_t errors = 0;
};

/** The interactive unit: PR on the small dictionary preset. */
gga::WorkUnit
interactiveUnit(double scale)
{
    gga::WorkUnit u;
    u.app = gga::AppId::Pr;
    u.preset = gga::GraphPreset::Dct;
    u.scale = scale;
    u.config = *gga::tryParseConfig("SG1");
    return u;
}

/** A batch manifest: K PR units on the larger RAJ preset, keys made
 *  distinct by seed (PR ignores the seed, so the work is uniform). */
gga::Manifest
batchManifest(unsigned units, double scale, std::uint64_t iteration)
{
    gga::Manifest m;
    for (unsigned i = 0; i < units; ++i) {
        gga::WorkUnit u;
        u.app = gga::AppId::Pr;
        u.preset = gga::GraphPreset::Raj;
        u.scale = scale;
        u.config = *gga::tryParseConfig("SG1");
        u.seed = iteration * units + i + 1;
        m.add(u);
    }
    return m;
}

/**
 * Submit one job and long-poll it to a terminal state. Returns whether
 * the job finished done (latency recorded by the caller).
 */
bool
runJob(std::uint16_t port, const std::string& body)
{
    gga::HttpResponse r = gga::httpRequest(port, "POST", "/v1/jobs", body);
    if (r.status == 429) {
        // Over an admission or rate bound: back off briefly, not an error.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return false;
    }
    if (r.status != 202)
        throw gga::ServeError("submit failed: HTTP " +
                              std::to_string(r.status) + " " + r.body);
    gga::Json snap = gga::Json::parse(r.body);
    const std::string id = snap.find("id")->asString();
    std::uint64_t version = snap.find("version")->asU64();
    for (;;) {
        const std::string state = snap.find("state")->asString();
        if (state == "done")
            return true;
        if (state == "failed" || state == "canceled")
            throw gga::ServeError("job " + id + " ended " + state);
        gga::HttpResponse poll = gga::httpRequest(
            port, "GET",
            "/v1/jobs/" + id + "?wait_ms=5000&since=" +
                std::to_string(version));
        if (poll.status != 200)
            throw gga::ServeError("poll failed: HTTP " +
                                  std::to_string(poll.status));
        snap = gga::Json::parse(poll.body);
        version = snap.find("version")->asU64();
    }
}

void
clientLoop(std::uint16_t port, const std::string& tenant, bool interactive,
           const Options& opt, const std::string& priority,
           Clock::time_point deadline, ClientLog* log)
{
    std::uint64_t iteration = 0;
    const gga::Json planJson = interactiveUnit(opt.scale).toJson();
    while (Clock::now() < deadline) {
        gga::Json body = gga::Json::object();
        if (interactive) {
            body.set("plan", gga::Json::parse(planJson.dump()));
        } else {
            body.set("manifest", batchManifest(opt.batchUnits,
                                               opt.batchScale,
                                               iteration)
                                     .toJson());
        }
        body.set("tenant", gga::Json(tenant));
        body.set("priority", gga::Json(priority));
        ++iteration;
        const auto t0 = Clock::now();
        try {
            if (runJob(port, body.dump()))
                log->latenciesMs.push_back(
                    std::chrono::duration<double, std::milli>(Clock::now() -
                                                              t0)
                        .count());
        } catch (const gga::ServeError& err) {
            ++log->errors;
            GGA_WARN("loadgen ", tenant, ": ", err.what());
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    }
}

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0;
    const auto n = static_cast<double>(sorted.size());
    const auto idx = static_cast<std::size_t>(
        std::min(n - 1, std::max(0.0, std::ceil(q * n) - 1)));
    return sorted[idx];
}

gga::Json
laneJson(const std::vector<ClientLog>& logs)
{
    std::vector<double> all;
    std::uint64_t errors = 0;
    for (const ClientLog& log : logs) {
        all.insert(all.end(), log.latenciesMs.begin(),
                   log.latenciesMs.end());
        errors += log.errors;
    }
    std::sort(all.begin(), all.end());
    gga::Json j = gga::Json::object();
    j.set("jobs", gga::Json(static_cast<std::uint64_t>(all.size())));
    j.set("errors", gga::Json(errors));
    j.set("p50_ms", gga::Json(percentile(all, 0.50)));
    j.set("p95_ms", gga::Json(percentile(all, 0.95)));
    j.set("p99_ms", gga::Json(percentile(all, 0.99)));
    j.set("max_ms", gga::Json(all.empty() ? 0.0 : all.back()));
    return j;
}

struct PhaseResult
{
    gga::Json json = gga::Json::object();
    double interactiveP99 = 0;
    double batchP99 = 0;
};

/** Run one closed-loop phase; @p interactivePriority is the lane the
 *  small plan jobs ask for ("batch" reproduces the single-FIFO world). */
PhaseResult
runPhase(const Options& opt, const std::string& name,
         const std::string& interactivePriority)
{
    std::vector<ClientLog> interactiveLogs(opt.interactiveClients);
    std::vector<ClientLog> batchLogs(opt.batchClients);
    std::vector<std::thread> clients;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(opt.durationS));
    for (unsigned i = 0; i < opt.interactiveClients; ++i)
        clients.emplace_back([&, i] {
            clientLoop(opt.port, "lg-" + name + "-i" + std::to_string(i),
                       true, opt, interactivePriority, deadline,
                       &interactiveLogs[i]);
        });
    for (unsigned i = 0; i < opt.batchClients; ++i)
        clients.emplace_back([&, i] {
            clientLoop(opt.port, "lg-" + name + "-b" + std::to_string(i),
                       false, opt, "batch", deadline, &batchLogs[i]);
        });
    for (std::thread& t : clients)
        t.join();
    const double elapsedS =
        std::chrono::duration<double>(Clock::now() - start).count();

    std::uint64_t jobs = 0;
    for (const ClientLog& log : interactiveLogs)
        jobs += log.latenciesMs.size();
    for (const ClientLog& log : batchLogs)
        jobs += log.latenciesMs.size();

    PhaseResult out;
    gga::Json lanes = gga::Json::object();
    gga::Json inter = laneJson(interactiveLogs);
    gga::Json batch = laneJson(batchLogs);
    out.interactiveP99 = inter.find("p99_ms")->asDouble();
    out.batchP99 = batch.find("p99_ms")->asDouble();
    lanes.set("interactive", std::move(inter));
    lanes.set("batch", std::move(batch));
    out.json.set("elapsed_s", gga::Json(elapsedS));
    out.json.set("jobs_per_sec",
                 gga::Json(elapsedS > 0 ? static_cast<double>(jobs) /
                                              elapsedS
                                        : 0.0));
    out.json.set("lanes", std::move(lanes));

    // The executor's view after the phase (its counters are cumulative
    // across phases).
    gga::HttpResponse stats =
        gga::httpRequest(opt.port, "GET", "/stats");
    if (stats.status == 200) {
        const gga::Json parsed = gga::Json::parse(stats.body);
        if (const gga::Json* exec = parsed.find("executor"))
            out.json.set("executor", gga::Json::parse(exec->dump()));
    }
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--port") && i + 1 < argc) {
            opt.port = static_cast<std::uint16_t>(
                parseCount("--port", argv[++i]));
        } else if (!std::strcmp(argv[i], "--duration-s") && i + 1 < argc) {
            opt.durationS = std::strtod(argv[++i], nullptr);
            if (opt.durationS <= 0)
                GGA_FATAL("--duration-s wants a positive number");
        } else if (!std::strcmp(argv[i], "--interactive") && i + 1 < argc) {
            opt.interactiveClients = static_cast<unsigned>(
                parseCount("--interactive", argv[++i]));
        } else if (!std::strcmp(argv[i], "--batch") && i + 1 < argc) {
            opt.batchClients = static_cast<unsigned>(
                parseCount("--batch", argv[++i]));
        } else if (!std::strcmp(argv[i], "--batch-units") && i + 1 < argc) {
            opt.batchUnits = static_cast<unsigned>(
                parseCount("--batch-units", argv[++i]));
            if (opt.batchUnits == 0)
                GGA_FATAL("--batch-units must be at least 1");
        } else if (!std::strcmp(argv[i], "--scale") && i + 1 < argc) {
            opt.scale = parseScale("--scale", argv[++i]);
        } else if (!std::strcmp(argv[i], "--batch-scale") && i + 1 < argc) {
            opt.batchScale = parseScale("--batch-scale", argv[++i]);
        } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
            opt.jsonOut = argv[++i];
        } else {
            GGA_FATAL("unknown argument '", argv[i],
                      "'; usage: gga_loadgen --port P [--duration-s D] "
                      "[--interactive N] [--batch M] [--batch-units K] "
                      "[--scale S] [--batch-scale S] [--json OUT]");
        }
    }
    if (opt.port == 0)
        GGA_FATAL("missing --port (the gga_serve port to drive)");
    if (opt.interactiveClients == 0 && opt.batchClients == 0)
        GGA_FATAL("need at least one client "
                  "(--interactive and/or --batch)");

    // Warm the server's graph cache so neither phase pays one-time
    // synthesis costs: one interactive unit and one batch unit, serially.
    try {
        runJob(opt.port, [&] {
            gga::Json body = gga::Json::object();
            body.set("plan", interactiveUnit(opt.scale).toJson());
            body.set("tenant", gga::Json("lg-warmup"));
            return body.dump();
        }());
        runJob(opt.port, [&] {
            gga::Json body = gga::Json::object();
            body.set("manifest",
                     batchManifest(1, opt.batchScale, 0).toJson());
            body.set("tenant", gga::Json("lg-warmup"));
            return body.dump();
        }());
    } catch (const gga::ServeError& err) {
        GGA_FATAL("warmup against port ", opt.port, " failed: ",
                  err.what());
    }

    std::fprintf(stderr,
                 "[loadgen] port %u: %u interactive + %u batch clients, "
                 "%u-unit batches, %.0fs per phase\n",
                 opt.port, opt.interactiveClients, opt.batchClients,
                 opt.batchUnits, opt.durationS);
    const PhaseResult fifo = runPhase(opt, "fifo", "batch");
    std::fprintf(stderr,
                 "[loadgen] fifo:  interactive p99 %.1fms, batch p99 "
                 "%.1fms\n",
                 fifo.interactiveP99, fifo.batchP99);
    const PhaseResult lanes = runPhase(opt, "lanes", "interactive");
    std::fprintf(stderr,
                 "[loadgen] lanes: interactive p99 %.1fms, batch p99 "
                 "%.1fms\n",
                 lanes.interactiveP99, lanes.batchP99);

    const double improvement = lanes.interactiveP99 > 0
                                   ? fifo.interactiveP99 /
                                         lanes.interactiveP99
                                   : 0.0;
    gga::Json report = gga::Json::object();
    report.set("suite", gga::Json("gga loadgen"));
    report.set("duration_s", gga::Json(opt.durationS));
    report.set("interactive_clients", gga::Json(opt.interactiveClients));
    report.set("batch_clients", gga::Json(opt.batchClients));
    report.set("batch_units", gga::Json(opt.batchUnits));
    report.set("scale", gga::Json(opt.scale));
    report.set("batch_scale", gga::Json(opt.batchScale));
    gga::Json phases = gga::Json::object();
    phases.set("fifo", gga::Json::parse(fifo.json.dump()));
    phases.set("lanes", gga::Json::parse(lanes.json.dump()));
    report.set("phases", std::move(phases));
    report.set("interactive_p99_improvement", gga::Json(improvement));

    std::fprintf(stderr, "[loadgen] interactive p99 improvement: %.2fx\n",
                 improvement);
    if (!opt.jsonOut.empty()) {
        gga::writeTextFile(opt.jsonOut, report.dump(2) + "\n");
        std::fprintf(stderr, "[loadgen] wrote %s\n", opt.jsonOut.c_str());
    } else {
        std::printf("%s\n", report.dump(2).c_str());
    }
    return 0;
}
