/**
 * @file
 * serve-mixed: a gga_serve child process (3 executor threads, journal in
 * a fresh state directory) under a closed loop of two interactive
 * clients and one batch client, all in this process.
 *
 * Interactive clients submit single plans from a seeded rotation over
 * the six apps on RAJ and DCT at 0.05; the batch client submits the
 * fig5 manifest at 0.01, waits for it, and fetches /render. Each client
 * waits for its job before sending the next. After the window the
 * served rows and renders are checked against in-process runs.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <thread>

#include "bench.hpp"
#include "eval/run.hpp"
#include "harness/figures.hpp"
#include "serve/http.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr unsigned kServeThreads = 3;
constexpr unsigned kInteractiveClients = 2;
constexpr double kInteractiveScale = 0.05;
constexpr double kBatchScale = 0.01;
const gga::GraphPreset kInteractiveInputs[] = {gga::GraphPreset::Raj,
                                               gga::GraphPreset::Dct};

/**
 * A gga_serve child process on an ephemeral loopback port. Stopped
 * (SIGTERM, then SIGKILL after a grace period) and reaped on destruction.
 */
class ServerProcess
{
  public:
    ServerProcess(const std::string& bin, const std::filesystem::path& dir)
    {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir / "state");
        const std::string portFile = (dir / "port").string();
        const std::string log = (dir / "server.log").string();
        const std::string state = (dir / "state").string();
        const std::string threads = std::to_string(kServeThreads);
        std::vector<std::string> args = {bin,         "--port",      "0",
                                         "--port-file", portFile,    "--threads",
                                         threads,     "--state-dir", state};
        std::vector<char*> argv;
        for (std::string& a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        pid_ = ::fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                  0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
            }
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        const std::int64_t deadline = nowNs() + 60'000'000'000;
        while (nowNs() < deadline) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("gga_serve exited during start; see " +
                                         log);
            }
            std::ifstream in(portFile);
            unsigned port = 0;
            if (in >> port && port != 0) {
                port_ = static_cast<std::uint16_t>(port);
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        stop();
        throw std::runtime_error("gga_serve did not report a port");
    }

    ~ServerProcess() { stop(); }

    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    std::uint16_t port() const { return port_; }
    int pid() const { return pid_; }

    /** SIGTERM, wait up to 10 s, then SIGKILL; reaps the child. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGTERM);
        const std::int64_t deadline = nowNs() + 10'000'000'000;
        int status = 0;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (nowNs() > deadline) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
    }

  private:
    int pid_ = -1;
    std::uint16_t port_ = 0;
};

/** One submitted job, as its client saw it. */
struct Attempt
{
    bool interactive = true;
    int status = 0;  ///< HTTP status of the POST; 0 = transport failure
    bool ok = false; ///< reached done (and, for batch, rendered)
    std::string job;
    std::size_t unit = 0; ///< rotation index (interactive)
    std::int64_t postNs = 0, admitNs = 0, doneNs = 0, renderNs = 0;
    unsigned polls = 0;
    std::string render;
    std::string error;
};

/** A traced HTTP call into the serve layer. */
gga::HttpResponse
call(Tracer& tracer, std::uint64_t parent, std::uint64_t req,
     std::uint16_t port, const std::string& method, const std::string& target,
     const char* spanName, const std::string& body = {})
{
    Scope s(tracer, "serve", spanName, parent, req);
    return gga::httpRequest(port, method, target, body);
}

/**
 * POST @p body, long-poll the job to a terminal state, and (for batch
 * jobs) fetch its render. Fills @p a; never throws.
 */
void
runJob(Tracer& tracer, std::uint64_t req, std::uint16_t port,
       const std::string& body, Attempt& a)
{
    const std::uint64_t span = tracer.newId();
    a.postNs = nowNs();
    try {
        gga::HttpResponse r = call(tracer, span, req, port, "POST",
                                   "/v1/jobs", "POST /v1/jobs", body);
        a.admitNs = nowNs();
        a.status = r.status;
        if (r.status != 202) {
            a.error = "POST answered " + std::to_string(r.status);
        } else {
            gga::Json snap = gga::Json::parse(r.body);
            a.job = snap.at("id").asString();
            for (;;) {
                const std::string state = snap.at("state").asString();
                if (state == "done")
                    break;
                if (state == "failed" || state == "canceled")
                    throw gga::ServeError("job " + a.job + " ended " + state);
                ++a.polls;
                const gga::HttpResponse poll = call(
                    tracer, span, req, port, "GET",
                    "/v1/jobs/" + a.job + "?wait_ms=5000&since=" +
                        std::to_string(snap.at("version").asU64()),
                    "GET /v1/jobs/{id}");
                if (poll.status != 200)
                    throw gga::ServeError("poll answered " +
                                          std::to_string(poll.status));
                snap = gga::Json::parse(poll.body);
            }
            a.doneNs = nowNs();
            if (!a.interactive) {
                gga::HttpResponse render =
                    call(tracer, span, req, port, "GET",
                         "/v1/jobs/" + a.job + "/render",
                         "GET /v1/jobs/{id}/render");
                a.renderNs = nowNs();
                if (render.status != 200)
                    throw gga::ServeError("render answered " +
                                          std::to_string(render.status));
                a.render = std::move(render.body);
            }
            a.ok = true;
        }
    } catch (const std::exception& err) {
        a.error = err.what();
    }
    tracer.record(span, 0, req, "bench",
                  a.interactive ? "interactive job" : "batch job", a.postNs,
                  nowNs());
}

std::string
planBody(const gga::WorkUnit& unit, const std::string& tenant)
{
    gga::Json body = gga::Json::object();
    body.set("plan", unit.toJson());
    body.set("tenant", gga::Json(tenant));
    return body.dump();
}

std::string
manifestBody(const gga::Manifest& manifest, const std::string& tenant)
{
    gga::Json body = gga::Json::object();
    body.set("manifest", manifest.toJson());
    body.set("tenant", gga::Json(tenant));
    return body.dump();
}

/**
 * Every single-plan unit the interactive clients can draw: the six apps
 * on RAJ and DCT at 0.05, each under the configuration the model
 * predicts for it (what a user asking for one answer would run), MIS/CLR
 * with the benchmark seed's per-workload seed (every pooled seed when
 * recording goldens).
 */
std::vector<gga::WorkUnit>
interactiveUnits(const Options& opts)
{
    std::vector<gga::WorkUnit> units;
    for (gga::AppId app : gga::kAllApps) {
        for (gga::GraphPreset p : kInteractiveInputs) {
            const gga::Workload wl{app, p};
            std::vector<std::uint64_t> seeds{0};
            if (seededApp(app)) {
                seeds.clear();
                for (std::uint64_t s = 1; s <= kSeedPool; ++s)
                    if (opts.coverSeeds || s == workloadSeed(opts.seed, wl.name()))
                        seeds.push_back(s);
            }
            for (std::uint64_t seed : seeds) {
                gga::WorkUnit u;
                u.app = app;
                u.preset = p;
                u.scale = kInteractiveScale;
                u.config = gga::predictWorkload(wl, gga::SimParams{},
                                                kInteractiveScale);
                u.seed = seed;
                u.collectOutputs = true;
                units.push_back(u);
            }
        }
    }
    return units;
}

/** Start a server and warm it: build every input the workload touches. */
std::unique_ptr<ServerProcess>
startWarm(const Options& opts, const std::filesystem::path& dir,
          Tracer& tracer, std::uint64_t parent, std::uint64_t req)
{
    std::unique_ptr<ServerProcess> server;
    {
        Scope s(tracer, "serve", "gga_serve start", parent, req);
        server = std::make_unique<ServerProcess>(opts.serveBin, dir);
    }
    gga::Manifest warm;
    for (gga::GraphPreset p : gga::kAllGraphPresets) {
        gga::WorkUnit u;
        u.app = gga::AppId::Pr;
        u.preset = p;
        u.scale = kBatchScale;
        u.config = gga::parseConfig("TG0");
        warm.add(u);
    }
    for (gga::GraphPreset p : kInteractiveInputs) {
        gga::WorkUnit u;
        u.app = gga::AppId::Pr;
        u.preset = p;
        u.scale = kInteractiveScale;
        u.config = gga::parseConfig("TG0");
        warm.add(u);
    }
    Attempt a;
    a.interactive = true; // no render: the warm-up manifest is no figure
    runJob(tracer, req, server->port(), manifestBody(warm, "bench-warmup"), a);
    if (!a.ok)
        throw std::runtime_error("warm-up job failed: " + a.error);
    return server;
}

gga::Json
attemptJson(const Attempt& a, std::int64_t t0)
{
    gga::Json j = gga::Json::object();
    j.set("kind", gga::Json(a.interactive ? "interactive" : "batch"));
    j.set("status", gga::Json(a.status));
    j.set("ok", gga::Json(a.ok));
    j.set("post_ns", gga::Json(static_cast<std::int64_t>(a.postNs - t0)));
    j.set("admit_ns", gga::Json(static_cast<std::int64_t>(a.admitNs - t0)));
    j.set("done_ns", gga::Json(static_cast<std::int64_t>(a.doneNs - t0)));
    j.set("render_ns", gga::Json(static_cast<std::int64_t>(a.renderNs - t0)));
    j.set("polls", gga::Json(a.polls));
    if (!a.error.empty())
        j.set("error", gga::Json(a.error));
    return j;
}

} // namespace

gga::Json
runServeMixed(const Options& opts, Tracer& tracer)
{
    if (opts.serveBin.empty() || opts.workDir.empty())
        throw std::runtime_error("serve-mixed needs --serve-bin and --work-dir");
    const std::filesystem::path work(opts.workDir);

    // The batch request: the fig5 manifest with its figure meta, so the
    // server can render it. Built before timing starts.
    const gga::FigureSet figure = gga::figureSet("fig5", kBatchScale);
    const std::string batchBody = manifestBody(figure.manifest, "bench-batch");
    const std::vector<gga::WorkUnit> rotation = interactiveUnits(opts);

    gga::Json record = gga::Json::object();
    gga::Json setups = gga::Json::array();
    std::unique_ptr<ServerProcess> server;
    for (unsigned r = 0; r < std::max(1u, opts.setups); ++r) {
        if (server)
            server->stop();
        const std::uint64_t req = r + 1;
        const std::uint64_t span = tracer.newId();
        const std::int64_t t0 = nowNs();
        server = startWarm(opts, work / ("serve-" + std::to_string(r)), tracer,
                           span, req);
        const std::int64_t t1 = nowNs();
        tracer.record(span, 0, req, "bench", "setup", t0, t1);
        setups.push(gga::Json(secondsBetween(t0, t1)));
    }
    record.set("setup_s", std::move(setups));
    const std::uint16_t port = server->port();
    const auto statsNow = [port] {
        const gga::HttpResponse r = gga::httpRequest(port, "GET", "/stats");
        if (r.status != 200)
            throw std::runtime_error("/stats answered " +
                                     std::to_string(r.status));
        return gga::Json::parse(r.body);
    };
    record.set("stats_before", statsNow());

    // The measured window: the batch client runs fig5 jobs until the
    // budget is spent (another only while the last would still fit);
    // interactive clients keep going until the batch client is done.
    std::atomic<bool> batchDone{false};
    std::atomic<std::uint64_t> nextReq{1000};
    std::vector<std::vector<Attempt>> logs(kInteractiveClients + 1);
    const std::int64_t t0 = nowNs();
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kInteractiveClients; ++c) {
        clients.emplace_back([&, c] {
            // Each client cycles through its own seeded permutation of
            // the rotation: the seed changes the order, not the mix.
            std::vector<std::size_t> order(rotation.size());
            for (std::size_t i = 0; i < order.size(); ++i)
                order[i] = i;
            gga::SplitRng rng(opts.seed, c);
            for (std::size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[rng.nextBounded(i)]);
            const std::string tenant = "bench-i" + std::to_string(c);
            for (std::size_t n = 0; !batchDone.load(); ++n) {
                Attempt a;
                a.unit = order[n % order.size()];
                runJob(tracer, nextReq.fetch_add(1), port,
                       planBody(rotation[a.unit], tenant), a);
                if (a.status == 429)
                    std::this_thread::sleep_for(std::chrono::milliseconds(20));
                logs[c].push_back(std::move(a));
            }
        });
    }
    clients.emplace_back([&] {
        for (bool more = true; more;) {
            Attempt a;
            a.interactive = false;
            runJob(tracer, nextReq.fetch_add(1), port, batchBody, a);
            const double took = secondsBetween(a.postNs, nowNs());
            more = a.ok && secondsBetween(t0, nowNs()) + took <= opts.seconds;
            logs[kInteractiveClients].push_back(std::move(a));
        }
        batchDone.store(true);
    });
    for (std::thread& t : clients)
        t.join();
    const std::int64_t t1 = nowNs();

    record.set("stats", statsNow());
    record.set("peak_rss_mb", gga::Json(peakRssMb(server->pid())));
    record.set("window_s", gga::Json(secondsBetween(t0, t1)));

    // Everything below is outside the measured window.
    gga::Json attempts = gga::Json::array();
    gga::Json failures = gga::Json::array();
    gga::Json rows = gga::Json::array();
    std::map<std::size_t, std::string> servedRow; // rotation index -> row
    std::set<std::string> renders;
    for (const std::vector<Attempt>& log : logs) {
        for (const Attempt& a : log) {
            attempts.push(attemptJson(a, t0));
            if (!a.ok) {
                failures.push(gga::Json((a.interactive ? "interactive job: "
                                                       : "batch job: ") +
                                        a.error));
                continue;
            }
            if (!a.interactive) {
                renders.insert(a.render);
                continue;
            }
            const gga::HttpResponse r = gga::httpRequest(
                port, "GET", "/v1/jobs/" + a.job + "/results?after=0");
            const gga::Json page =
                r.status == 200 ? gga::Json::parse(r.body) : gga::Json();
            const gga::Json* got = page.find("rows");
            if (!got || got->asArray().size() != 1) {
                failures.push(gga::Json("job " + a.job + " has no result row"));
                continue;
            }
            const std::string dumped = got->asArray()[0].dump();
            auto [it, fresh] = servedRow.emplace(a.unit, dumped);
            if (!fresh && it->second != dumped)
                failures.push(gga::Json("job " + a.job +
                                        " differs from an earlier run of " +
                                        rotation[a.unit].key()));
        }
    }
    // One batch job's rows carry the served sweep's exact counts.
    for (const std::vector<Attempt>& log : logs) {
        for (const Attempt& a : log) {
            if (a.interactive || !a.ok || !rows.asArray().empty())
                continue;
            std::uint64_t after = 0;
            for (;;) {
                const gga::HttpResponse r = gga::httpRequest(
                    port, "GET",
                    "/v1/jobs/" + a.job + "/results?after=" +
                        std::to_string(after));
                if (r.status != 200)
                    throw std::runtime_error("results of " + a.job +
                                             " answered " +
                                             std::to_string(r.status));
                const gga::Json page = gga::Json::parse(r.body);
                const gga::Json::Array& got = page.at("rows").asArray();
                for (const gga::Json& row : got)
                    rows.push(row);
                after = page.at("next").asU64();
                if (got.empty() || page.at("done").asBool())
                    break;
            }
        }
    }
    server->stop();
    record.set("attempts", std::move(attempts));
    record.set("batch_rows", std::move(rows));

    // Served interactive rows must equal in-process runs of the same
    // units, whose outputs must pass the oracles; the served render must
    // equal an in-process render of the same manifest.
    gga::SessionOptions so;
    so.threads = 4;
    gga::Session session(so);
    Oracle oracle;
    gga::Json interactiveRows = gga::Json::array();
    for (const auto& [index, served] : servedRow) {
        const gga::WorkUnit& unit = rotation[index];
        const gga::RunOutcome out = session.run(gga::planForUnit(unit));
        const gga::GraphStore::GraphPtr g =
            gga::GraphStore::instance().get(*unit.preset, unit.scale);
        const std::string why = oracle.check(
            out, *g, gga::presetName(*unit.preset) + "@" +
                         std::to_string(unit.scale));
        if (!why.empty())
            failures.push(gga::Json(unit.key() + ": " + why));
        const gga::Json local = unitRow(unit.key(), out).toJson();
        if (local.dump() != served)
            failures.push(gga::Json(unit.key() +
                                    ": served row differs from in-process run"));
        interactiveRows.push(gga::Json::parse(served));
    }
    record.set("interactive_rows", std::move(interactiveRows));
    if (opts.coverSeeds) {
        gga::Json cover = gga::Json::array();
        for (const gga::WorkUnit& unit : rotation)
            cover.push(unitRow(unit.key(), session.run(gga::planForUnit(unit)))
                           .toJson());
        record.set("cover_rows", std::move(cover));
    }
    if (!renders.empty()) {
        const std::string want = gga::renderFigure(
            figure, gga::runManifest(session, figure.manifest), false);
        for (const std::string& got : renders)
            if (got != want)
                failures.push(gga::Json(
                    "served /render differs from the in-process render"));
    }
    record.set("failures", std::move(failures));
    return record;
}

} // namespace perfbench
