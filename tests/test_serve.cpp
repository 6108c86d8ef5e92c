/**
 * @file
 * Tests for the resident service: HTTP transport, request routing
 * (driven through the socketless Service::handle seam), multi-tenant
 * admission, local job lifecycle with long-poll and result streaming
 * (under a one-byte GraphStore budget too),
 * and the remote orchestration protocol — assignment leases, part
 * verification, duplicate discard, retry with backoff, and the
 * byte-identity of a remotely merged job to an in-process runManifest.
 * The connection tests drive the transport's resource bounds: finished
 * connection threads are reaped (memory stays flat over thousands of
 * one-shot requests), live connections are capped with a 503, and
 * stop() joins everything even with long-polls and idle keep-alives
 * open.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/graph_store.hpp"
#include "eval/run.hpp"
#include "harness/workloads.hpp"
#include "support/faults.hpp"
#include "serve/http.hpp"
#include "serve/server.hpp"
#include "serve/worker_client.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"

namespace gga {
namespace {

WorkUnit
unitFor(AppId app, const char* cfg, double scale = 0.05)
{
    WorkUnit u;
    u.app = app;
    u.preset = GraphPreset::Dct;
    u.scale = scale;
    u.config = parseConfig(cfg);
    return u;
}

/** 4 fast units on the small Dct preset. */
Manifest
tinyManifest()
{
    Manifest m;
    m.add(unitFor(AppId::Mis, "SG1"));
    m.add(unitFor(AppId::Mis, "TG0"));
    m.add(unitFor(AppId::Cc, "DG1"));
    m.add(unitFor(AppId::Cc, "DD1"));
    return m;
}

HttpRequest
request(std::string method, std::string path,
        std::map<std::string, std::string> query = {},
        std::string body = {},
        std::map<std::string, std::string> headers = {})
{
    HttpRequest r;
    r.method = std::move(method);
    r.path = std::move(path);
    r.target = r.path;
    r.query = std::move(query);
    r.body = std::move(body);
    r.headers = std::move(headers);
    return r;
}

ServiceOptions
quickOptions()
{
    ServiceOptions o;
    o.port = 0;
    o.session.threads = 2;
    o.retry.leaseMs = 40;
    o.retry.retryBaseMs = 1;
    o.retry.retryCapMs = 4;
    o.retry.maxAttempts = 3;
    o.tickMs = 5;
    return o;
}

Json
parseBody(const HttpResponse& r)
{
    return Json::parse(r.body);
}

/** Poll job status through handle() until terminal; returns the state. */
std::string
awaitTerminal(Service& svc, const std::string& id)
{
    std::uint64_t since = 0;
    for (int i = 0; i < 600; ++i) {
        const HttpResponse r = svc.handle(request(
            "GET", "/v1/jobs/" + id,
            {{"wait_ms", "200"}, {"since", std::to_string(since)}}));
        EXPECT_EQ(r.status, 200) << r.body;
        const Json j = parseBody(r);
        const std::string state = j.at("state").asString();
        if (state == "done" || state == "failed" || state == "canceled")
            return state;
        since = j.at("version").asU64();
    }
    return "timeout";
}

/**
 * A blocking TCP socket connected to 127.0.0.1:@p port; -1 on failure.
 * Reads time out after 10 s, so a missing response fails the test
 * instead of hanging it.
 */
int
connectRaw(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Read from @p fd until the peer closes it. */
std::string
readToClose(int fd)
{
    std::string out;
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof chunk, 0)) > 0)
        out.append(chunk, static_cast<std::size_t>(n));
    return out;
}

/** The /stats "http" section, read through the socketless seam. */
Json
httpStats(Service& svc)
{
    return parseBody(svc.handle(request("GET", "/stats"))).at("http");
}

/** Poll /stats until @p n connections are live; false after 10 s. */
bool
awaitLiveConnections(Service& svc, std::uint64_t n)
{
    for (int i = 0; i < 2000; ++i) {
        if (httpStats(svc).at("connections_live").asU64() == n)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
}

/** This process's virtual size (VmSize in /proc/self/status), KiB. */
std::uint64_t
vmSizeKib()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmSize:", 0) == 0)
            return std::stoull(line.substr(7));
    ADD_FAILURE() << "no VmSize in /proc/self/status";
    return 0;
}

/** Threads in this process right now. */
std::size_t
threadCount()
{
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return static_cast<std::size_t>(
        std::distance(begin(tasks), end(tasks)));
}

// --- transport -----------------------------------------------------------

TEST(ServeHttp, SocketedRequestsRouteAndKeepAliveWorks)
{
    Service svc(quickOptions());
    svc.start();
    ASSERT_NE(svc.port(), 0);

    const HttpResponse ok = httpRequest(svc.port(), "GET", "/healthz");
    EXPECT_EQ(ok.status, 200);
    EXPECT_EQ(parseBody(ok).at("status").asString(), "ok");

    EXPECT_EQ(httpRequest(svc.port(), "GET", "/nope").status, 404);
    EXPECT_EQ(httpRequest(svc.port(), "POST", "/healthz").status, 405);
    // A malformed JSON body is a client error, not a connection killer.
    EXPECT_EQ(httpRequest(svc.port(), "POST", "/v1/jobs", "{oops").status,
              400);

    const HttpResponse stats = httpRequest(svc.port(), "GET", "/stats");
    EXPECT_EQ(stats.status, 200);
    EXPECT_EQ(parseBody(stats).at("jobs").at("total").asU64(), 0u);

    svc.stop();
    EXPECT_THROW(httpRequest(svc.port(), "GET", "/healthz"), ServeError);
}

TEST(ServeHttp, QueryParametersDecode)
{
    Service svc(quickOptions());
    svc.start();
    // tenant filter percent-decodes and round-trips through the listing
    const HttpResponse r =
        httpRequest(svc.port(), "GET", "/v1/jobs?tenant=team%20a");
    EXPECT_EQ(r.status, 200);
    EXPECT_EQ(parseBody(r).at("jobs").asArray().size(), 0u);
}

// --- submit validation ---------------------------------------------------

TEST(ServeSubmit, RejectsMalformedBodies)
{
    Service svc(quickOptions());
    const Manifest m = tinyManifest();
    const std::string manifestText = m.toJson().dump();

    const auto post = [&](const std::string& body) {
        return svc.handle(request("POST", "/v1/jobs", {}, body)).status;
    };
    EXPECT_EQ(post("{}"), 400); // neither plan nor manifest
    EXPECT_EQ(post("{\"plan\": " + m.units()[0].toJson().dump() +
                   ", \"manifest\": " + manifestText + "}"),
              400); // both
    EXPECT_EQ(post("{\"manifest\": " + manifestText +
                   ", \"execution\": \"elsewhere\"}"),
              400);
    EXPECT_EQ(post("{\"manifest\": " + manifestText +
                   ", \"shards\": 2}"),
              400); // shards without remote
    EXPECT_EQ(post("{\"manifest\": " + manifestText +
                   ", \"execution\": \"remote\", \"shards\": 99}"),
              400); // more shards than units
    EXPECT_EQ(post("{\"manifest\": {\"units\": []}}"), 400); // empty
    EXPECT_EQ(post("{\"plan\": {\"app\": \"NOPE\"}}"), 400);
}

TEST(ServeSubmit, UnitsThatCannotRunAre400AndTheServerStaysUp)
{
    Service svc(quickOptions());
    svc.start();
    const auto plan = [](const std::string& input,
                         const std::string& params) {
        return "{\"plan\": {\"app\": \"PR\", \"input\": " + input +
               ", \"config\": \"TG0\", \"params\": " + params + "}}";
    };
    const std::string raj = "{\"preset\": \"RAJ\", \"scale\": 0.01}";
    // Each of these was once answered 202 and then aborted, hung or
    // silently misran the unit on the server. Table IV is constant, so a
    // member of it is refused even at its own value.
    const std::string bodies[] = {
        plan(raj, "{\"numSms\": 99}"),
        plan(raj, "{\"warpSize\": 64}"),
        plan(raj, "{\"warpSize\": 4294967328}"),
        plan(raj, "{\"dramLatency\": 170}"),
        plan("{\"preset\": \"RAJ\", \"scale\": 1e-7}", "{}"),
        // Too small to synthesize: DCT's backbone outgrows its edges.
        plan("{\"preset\": \"DCT\", \"scale\": 1e-4}", "{}"),
        // PR's static traversal cannot take a PushPull config.
        "{\"plan\": {\"app\": \"PR\", \"input\": " + raj +
            ", \"config\": \"DD1\"}}",
    };
    for (const std::string& body : bodies) {
        const HttpResponse r =
            httpRequest(svc.port(), "POST", "/v1/jobs", body);
        EXPECT_EQ(r.status, 400) << body << " -> " << r.body;
        EXPECT_EQ(httpRequest(svc.port(), "GET", "/healthz").status, 200);
    }
    svc.stop();
}

TEST(ServeSubmit, BadPriorityIs400AndStatsExposeExecutorLanes)
{
    Service svc(quickOptions());
    const std::string manifestText = tinyManifest().toJson().dump();
    EXPECT_EQ(svc.handle(request("POST", "/v1/jobs", {},
                                 "{\"manifest\": " + manifestText +
                                     ", \"priority\": \"urgent\"}"))
                  .status,
              400);

    // A valid priority admits; afterwards the executor section carries
    // the scheduler's lane depths.
    const HttpResponse sub = svc.handle(
        request("POST", "/v1/jobs", {},
                "{\"manifest\": " + manifestText +
                    ", \"priority\": \"interactive\"}"));
    ASSERT_EQ(sub.status, 202) << sub.body;
    EXPECT_EQ(awaitTerminal(svc, parseBody(sub).at("id").asString()),
              "done");

    const Json stats = parseBody(svc.handle(request("GET", "/stats")));
    const Json& exec = stats.at("executor");
    ASSERT_NE(exec.find("interactive_depth"), nullptr);
    ASSERT_NE(exec.find("batch_depth"), nullptr);
    ASSERT_NE(exec.find("steals_total"), nullptr);
    ASSERT_NE(exec.find("batch_niced"), nullptr);
    // The job drained, so both lanes are idle again.
    EXPECT_EQ(exec.at("interactive_depth").asU64(), 0u);
    EXPECT_EQ(exec.at("batch_depth").asU64(), 0u);
    // One snapshot: the total depth is the sum of the lane depths.
    EXPECT_EQ(exec.at("queue_depth").asU64(),
              exec.at("interactive_depth").asU64() +
                  exec.at("batch_depth").asU64());
}

TEST(ServeSubmit, PlansTakeTheInteractiveLaneManifestsTheBatchLane)
{
    ServiceOptions o = quickOptions();
    o.session.threads = 1;
    Service svc(o);
    // Park the only worker so both jobs stay queued. The gate is declared
    // after svc: a failed assertion destroys it first, which releases the
    // worker before the service drains.
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    svc.session().executor().post([opened] { opened.wait(); });
    while (svc.session().executorStats().running != 1)
        std::this_thread::yield();

    // Neither job names a "priority": the kind of job picks the lane.
    const HttpResponse batch = svc.handle(
        request("POST", "/v1/jobs", {},
                "{\"manifest\": " + tinyManifest().toJson().dump() + "}"));
    ASSERT_EQ(batch.status, 202) << batch.body;
    const HttpResponse plan = svc.handle(request(
        "POST", "/v1/jobs", {},
        "{\"plan\": " + unitFor(AppId::Pr, "SG1").toJson().dump() + "}"));
    ASSERT_EQ(plan.status, 202) << plan.body;
    const Json exec =
        parseBody(svc.handle(request("GET", "/stats"))).at("executor");
    EXPECT_EQ(exec.at("interactive_depth").asU64(), 1u);
    EXPECT_EQ(exec.at("batch_depth").asU64(), 4u);

    gate.set_value();
    EXPECT_EQ(awaitTerminal(svc, parseBody(batch).at("id").asString()),
              "done");
    EXPECT_EQ(awaitTerminal(svc, parseBody(plan).at("id").asString()),
              "done");
}

TEST(ServeSubmit, UnknownJobIs404)
{
    Service svc(quickOptions());
    EXPECT_EQ(svc.handle(request("GET", "/v1/jobs/job-99")).status, 404);
    EXPECT_EQ(svc.handle(request("GET", "/v1/jobs/job-99/results")).status,
              404);
    EXPECT_EQ(svc.handle(request("GET", "/v1/jobs/job-99/render")).status,
              404);
    EXPECT_EQ(svc.handle(request("DELETE", "/v1/jobs/job-99")).status,
              404);
}

// --- multi-tenant admission ----------------------------------------------

TEST(ServeAdmission, PerTenantBoundRejectsWith429)
{
    ServiceOptions o = quickOptions();
    o.maxQueuedPerTenant = 1;
    Service svc(o);
    // Remote jobs with no connected workers stay live indefinitely.
    const std::string body = "{\"manifest\": " +
                             tinyManifest().toJson().dump() +
                             ", \"execution\": \"remote\", \"shards\": 2}";

    const HttpResponse first = svc.handle(request(
        "POST", "/v1/jobs", {}, body, {{"x-gga-tenant", "alice"}}));
    ASSERT_EQ(first.status, 202) << first.body;
    const std::string id = parseBody(first).at("id").asString();
    EXPECT_EQ(parseBody(first).at("tenant").asString(), "alice");

    // Same tenant: over quota. Different tenant: admitted.
    EXPECT_EQ(svc.handle(request("POST", "/v1/jobs", {}, body,
                                 {{"x-gga-tenant", "alice"}}))
                  .status,
              429);
    EXPECT_EQ(svc.handle(request("POST", "/v1/jobs", {}, body,
                                 {{"x-gga-tenant", "bob"}}))
                  .status,
              202);

    // Canceling frees the quota.
    EXPECT_EQ(svc.handle(request("DELETE", "/v1/jobs/" + id)).status, 200);
    EXPECT_EQ(svc.handle(request("POST", "/v1/jobs", {}, body,
                                 {{"x-gga-tenant", "alice"}}))
                  .status,
              202);

    // The listing filters by tenant.
    const HttpResponse listed = svc.handle(
        request("GET", "/v1/jobs", {{"tenant", "bob"}}));
    EXPECT_EQ(parseBody(listed).at("jobs").asArray().size(), 1u);
}

// --- local jobs ----------------------------------------------------------

TEST(ServeLocal, JobRunsToDoneAndStreamsRows)
{
    Service svc(quickOptions());
    const Manifest manifest = tinyManifest();

    const HttpResponse sub = svc.handle(
        request("POST", "/v1/jobs", {},
                "{\"manifest\": " + manifest.toJson().dump() + "}"));
    ASSERT_EQ(sub.status, 202) << sub.body;
    const Json snap = parseBody(sub);
    const std::string id = snap.at("id").asString();
    EXPECT_EQ(snap.at("tenant").asString(), "default");
    EXPECT_EQ(snap.at("execution").asString(), "local");
    EXPECT_EQ(snap.at("total_units").asU64(), manifest.size());

    EXPECT_EQ(awaitTerminal(svc, id), "done");

    // Stream the rows out in two pages via the after cursor.
    const HttpResponse page1 = svc.handle(request(
        "GET", "/v1/jobs/" + id + "/results", {{"after", "0"}}));
    ASSERT_EQ(page1.status, 200);
    const Json p1 = parseBody(page1);
    EXPECT_TRUE(p1.at("done").asBool());
    EXPECT_EQ(p1.at("rows").asArray().size(), manifest.size());
    EXPECT_EQ(p1.at("next").asU64(), manifest.size());
    const HttpResponse page2 = svc.handle(
        request("GET", "/v1/jobs/" + id + "/results",
                {{"after", std::to_string(manifest.size())}}));
    EXPECT_EQ(parseBody(page2).at("rows").asArray().size(), 0u);

    // The assembled results are byte-identical to an in-process run.
    Session reference;
    const ResultSet expected = runManifest(reference, manifest);
    const std::optional<ResultSet> got = svc.jobs().finalResults(id);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->toJson().dump(), expected.toJson().dump());

    // No figure meta on a hand-built manifest: render is a clean 400.
    EXPECT_EQ(svc.handle(request("GET", "/v1/jobs/" + id + "/render"))
                  .status,
              400);

    // Stats picked up the executed units.
    const Json stats = parseBody(svc.handle(request("GET", "/stats")));
    EXPECT_EQ(stats.at("jobs").at("done").asU64(), 1u);
    EXPECT_GE(stats.at("executor").at("completed_total").asU64(),
              manifest.size());
    EXPECT_GE(stats.at("graph_store").at("misses").asU64(), 1u);
    const Json& lat = stats.at("unit_latency_ms_by_app");
    ASSERT_NE(lat.find("MIS"), nullptr);
    EXPECT_EQ(lat.at("MIS").at("count").asU64(), 2u);
}

TEST(ServeLocal, SinglePlanJobAndInvalidPlanFails)
{
    Service svc(quickOptions());

    WorkUnit u = unitFor(AppId::Mis, "SG1");
    u.seed = 5; // seeded plan flows through the service unchanged
    const HttpResponse sub = svc.handle(
        request("POST", "/v1/jobs", {},
                "{\"plan\": " + u.toJson().dump() + "}"));
    ASSERT_EQ(sub.status, 202) << sub.body;
    const std::string id = parseBody(sub).at("id").asString();
    EXPECT_EQ(awaitTerminal(svc, id), "done");
    const std::optional<ResultSet> rs = svc.jobs().finalResults(id);
    ASSERT_TRUE(rs.has_value());
    ASSERT_EQ(rs->size(), 1u);
    EXPECT_EQ(rs->results()[0].key, u.key());

    // A structurally valid unit with an invalid app/config pairing is
    // refused at admission with the plan validator's reason.
    const HttpResponse bad = svc.handle(
        request("POST", "/v1/jobs", {},
                "{\"plan\": " +
                    unitFor(AppId::Pr, "DD1").toJson().dump() + "}"));
    EXPECT_EQ(bad.status, 400) << bad.body;
    EXPECT_NE(bad.body.find("PR has a static traversal and requires Push "
                            "or Pull, got DD1"),
              std::string::npos)
        << bad.body;
}

TEST(ServeLocal, MissingInputFileFailsTheJobAndTheServerStaysUp)
{
    Service svc(quickOptions());
    svc.start();
    const HttpResponse sub = httpRequest(
        svc.port(), "POST", "/v1/jobs",
        "{\"plan\": {\"app\": \"PR\", \"input\": {\"path\": "
        "\"no/such/input.mtx\"}, \"config\": \"TG0\"}}");
    ASSERT_EQ(sub.status, 202) << sub.body;
    const std::string id = parseBody(sub).at("id").asString();
    EXPECT_EQ(awaitTerminal(svc, id), "failed");
    const Json snap =
        parseBody(httpRequest(svc.port(), "GET", "/v1/jobs/" + id));
    EXPECT_NE(snap.at("error").asString().find(
                  "cannot open MatrixMarket file: no/such/input.mtx"),
              std::string::npos)
        << snap.dump();
    // The plan was valid; its input was not.
    EXPECT_EQ(snap.at("error").asString().find("invalid run plan"),
              std::string::npos)
        << snap.dump();
    EXPECT_EQ(httpRequest(svc.port(), "GET", "/healthz").status, 200);
    svc.stop();
}

TEST(ServeLocal, OneByteGraphBudgetUnderThreeTenantsFinishesEveryJob)
{
    // The GraphStore budget at its limit with many tenants pinning
    // graphs: each running unit holds its input's handle while the
    // budget keeps at most one completed entry resident.
    constexpr double kScale = 0.02;
    GraphStore& store = GraphStore::instance();
    store.clear();
    store.setBudgetBytes(1);
    const std::uint64_t evictions = store.counters().evictions;
    Service svc(quickOptions()); // 2 executor threads
    std::vector<std::thread> clients;
    for (const char* tenant : {"alice", "bob", "carol"})
        clients.emplace_back([&svc, tenant] {
            std::vector<std::string> ids;
            for (GraphPreset g : kAllGraphPresets) {
                WorkUnit u = unitFor(AppId::Pr, "TG0", kScale);
                u.preset = g;
                Json body = Json::object();
                body.set("tenant", Json(tenant));
                body.set("plan", u.toJson());
                const HttpResponse r = svc.handle(
                    request("POST", "/v1/jobs", {}, body.dump()));
                EXPECT_EQ(r.status, 202) << r.body;
                if (r.status == 202)
                    ids.push_back(parseBody(r).at("id").asString());
            }
            for (const std::string& id : ids)
                EXPECT_EQ(awaitTerminal(svc, id), "done") << tenant << id;
        });
    for (std::thread& c : clients)
        c.join();

    std::size_t largest = 0;
    for (GraphPreset g : kAllGraphPresets)
        largest = std::max(largest,
                           buildPresetScaled(g, kScale).memoryBytes());
    const Json gs =
        parseBody(svc.handle(request("GET", "/stats"))).at("graph_store");
    EXPECT_GT(gs.at("evictions").asU64(), evictions);
    EXPECT_LE(gs.at("resident_bytes").asU64(), largest);
    EXPECT_EQ(svc.handle(request("GET", "/healthz")).status, 200);
    store.setBudgetBytes(0);
    store.clear();
}

// --- remote orchestration ------------------------------------------------

/** Register a worker through the wire layer; returns its id. */
std::string
registerWorker(Service& svc, const std::string& name)
{
    const HttpResponse r = svc.handle(request(
        "POST", "/v1/workers/register", {}, "{\"name\": \"" + name + "\"}"));
    EXPECT_EQ(r.status, 200);
    return parseBody(r).at("worker").asString();
}

/** One poll; nullopt on 204. */
std::optional<Json>
pollWorker(Service& svc, const std::string& worker)
{
    const HttpResponse r = svc.handle(request(
        "POST", "/v1/workers/poll", {}, "{\"worker\": \"" + worker + "\"}"));
    if (r.status == 204)
        return std::nullopt;
    EXPECT_EQ(r.status, 200) << r.body;
    return parseBody(r);
}

/** Execute an assignment like gga_worker --connect and post the part. */
HttpResponse
runAndPost(Service& svc, Session& session, const std::string& worker,
           const Json& assignment)
{
    const Manifest shard = Manifest::fromJson(assignment.at("manifest"));
    const ResultSet results = runManifest(session, shard);
    Json part = Json::object();
    part.set("worker", Json(worker));
    part.set("job", assignment.at("job"));
    part.set("shard", assignment.at("shard"));
    part.set("results", results.toJson());
    return svc.handle(
        request("POST", "/v1/workers/parts", {}, part.dump()));
}

TEST(ServeRemote, ShardedJobMergesByteIdenticalWithDuplicateDiscard)
{
    Service svc(quickOptions());
    const Manifest manifest = tinyManifest();

    const HttpResponse sub = svc.handle(request(
        "POST", "/v1/jobs", {},
        "{\"manifest\": " + manifest.toJson().dump() +
            ", \"execution\": \"remote\", \"shards\": 2}"));
    ASSERT_EQ(sub.status, 202) << sub.body;
    const std::string id = parseBody(sub).at("id").asString();

    // Unknown workers are rejected before touching the orchestrator.
    EXPECT_EQ(svc.handle(request("POST", "/v1/workers/poll", {},
                                 "{\"worker\": \"w-bogus\"}"))
                  .status,
              404);

    const std::string worker = registerWorker(svc, "t0");
    Session workerSession;

    std::optional<Json> a0 = pollWorker(svc, worker);
    ASSERT_TRUE(a0.has_value());
    EXPECT_EQ(a0->at("job").asString(), id);
    EXPECT_EQ(a0->at("shard_count").asU64(), 2u);
    std::optional<Json> a1 = pollWorker(svc, worker);
    ASSERT_TRUE(a1.has_value());
    EXPECT_NE(a0->at("shard").asU64(), a1->at("shard").asU64());
    // Both shards leased: nothing left to hand out.
    EXPECT_FALSE(pollWorker(svc, worker).has_value());

    const HttpResponse first = runAndPost(svc, workerSession, worker, *a0);
    EXPECT_EQ(first.status, 200);
    EXPECT_EQ(parseBody(first).at("status").asString(), "accepted");

    // A slow replica re-posting the finished shard while the job is
    // still in flight is discarded, never merged twice.
    const HttpResponse dup = runAndPost(svc, workerSession, worker, *a0);
    EXPECT_EQ(dup.status, 200);
    EXPECT_EQ(parseBody(dup).at("status").asString(), "duplicate");

    const HttpResponse last = runAndPost(svc, workerSession, worker, *a1);
    EXPECT_EQ(last.status, 200);
    EXPECT_EQ(parseBody(last).at("status").asString(), "accepted");

    EXPECT_EQ(awaitTerminal(svc, id), "done");

    // Once every shard merged, the job leaves the assignment pool: a
    // straggler part for it is unknown, not silently re-merged.
    EXPECT_EQ(runAndPost(svc, workerSession, worker, *a1).status, 404);

    Session reference;
    const ResultSet expected = runManifest(reference, manifest);
    const std::optional<ResultSet> got = svc.jobs().finalResults(id);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->toJson().dump(), expected.toJson().dump());

    const Json stats = parseBody(svc.handle(request("GET", "/stats")));
    EXPECT_EQ(stats.at("orchestrator").at("completed_shards_total").asU64(),
              2u);
    EXPECT_EQ(stats.at("orchestrator").at("duplicate_parts_total").asU64(),
              1u);
}

TEST(ServeRemote, BadPartIsRejectedAndShardRetried)
{
    Service svc(quickOptions());
    const Manifest manifest = tinyManifest();

    const HttpResponse sub = svc.handle(request(
        "POST", "/v1/jobs", {},
        "{\"manifest\": " + manifest.toJson().dump() +
            ", \"execution\": \"remote\", \"shards\": 1}"));
    ASSERT_EQ(sub.status, 202) << sub.body;
    const std::string id = parseBody(sub).at("id").asString();

    const std::string worker = registerWorker(svc, "flaky");
    std::optional<Json> a = pollWorker(svc, worker);
    ASSERT_TRUE(a.has_value());

    // Post an empty part: fails verifyComplete, shard goes back to
    // Waiting with backoff.
    Json bad = Json::object();
    bad.set("worker", Json(worker));
    bad.set("job", a->at("job"));
    bad.set("shard", a->at("shard"));
    bad.set("results", ResultSet{}.toJson());
    const HttpResponse rejected = svc.handle(
        request("POST", "/v1/workers/parts", {}, bad.dump()));
    EXPECT_EQ(rejected.status, 400);

    // After the (1 ms) backoff the same shard is reassigned.
    std::optional<Json> retry;
    for (int i = 0; i < 100 && !retry; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        retry = pollWorker(svc, worker);
    }
    ASSERT_TRUE(retry.has_value());
    EXPECT_EQ(retry->at("shard").asU64(), a->at("shard").asU64());

    Session workerSession;
    EXPECT_EQ(runAndPost(svc, workerSession, worker, *retry).status, 200);
    EXPECT_EQ(awaitTerminal(svc, id), "done");

    const Json stats = parseBody(svc.handle(request("GET", "/stats")));
    EXPECT_EQ(stats.at("orchestrator").at("rejected_parts_total").asU64(),
              1u);
    EXPECT_GE(stats.at("orchestrator").at("retries_total").asU64(), 1u);
}

TEST(ServeRemote, ExpiredLeasesReassignThenFailTheJob)
{
    ServiceOptions o = quickOptions();
    o.retry.leaseMs = 1; // every assignment expires immediately
    o.retry.maxAttempts = 2;
    Service svc(o); // not started: tick() driven by hand
    const Manifest manifest = tinyManifest();

    const HttpResponse sub = svc.handle(request(
        "POST", "/v1/jobs", {},
        "{\"manifest\": " + manifest.toJson().dump() +
            ", \"execution\": \"remote\", \"shards\": 1}"));
    ASSERT_EQ(sub.status, 202) << sub.body;
    const std::string id = parseBody(sub).at("id").asString();

    const std::string worker = registerWorker(svc, "crashy");

    // Attempt 1: lease, let it expire, never post the part.
    ASSERT_TRUE(pollWorker(svc, worker).has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    svc.orchestrator().tick();

    // Attempt 2: reassigned after backoff; expire it too.
    std::optional<Json> again;
    for (int i = 0; i < 100 && !again; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        again = pollWorker(svc, worker);
    }
    ASSERT_TRUE(again.has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    svc.orchestrator().tick();

    // Out of attempts: the job fails with a lease-expiry error.
    const Json snap = parseBody(
        svc.handle(request("GET", "/v1/jobs/" + id)));
    EXPECT_EQ(snap.at("state").asString(), "failed");
    EXPECT_FALSE(snap.at("error").asString().empty());
    EXPECT_FALSE(pollWorker(svc, worker).has_value());

    const Json stats = parseBody(svc.handle(request("GET", "/stats")));
    EXPECT_EQ(stats.at("orchestrator").at("expired_leases_total").asU64(),
              2u);
}

TEST(ServeRemote, LiveWorkerKeepsItsLeasePastTheLeaseTime)
{
    // A healthy worker renews its lease while its shard runs, so a shard
    // that takes several leases is neither expired nor reassigned.
    ServiceOptions o = quickOptions();
    o.retry.leaseMs = 200;
    Service svc(o);
    svc.start(); // the ticker expires overdue leases every 5 ms
    Manifest manifest;
    for (const char* cfg : {"TG0", "SG1", "SGR", "SD1", "SDR"})
        manifest.add(unitFor(AppId::Pr, cfg, 0.25));
    const HttpResponse sub = svc.handle(request(
        "POST", "/v1/jobs", {},
        "{\"manifest\": " + manifest.toJson().dump() +
            ", \"execution\": \"remote\", \"shards\": 1}"));
    ASSERT_EQ(sub.status, 202) << sub.body;
    const std::string id = parseBody(sub).at("id").asString();

    WorkerClientOptions w;
    w.port = svc.port();
    w.pollMs = 2;
    w.idleExitMs = 300;
    SessionOptions single;
    single.threads = 1;
    Session workerSession(single);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(runWorkerClient(workerSession, w), 1u);
    const auto ran = std::chrono::steady_clock::now() - start -
                     std::chrono::milliseconds(w.idleExitMs);
    EXPECT_EQ(awaitTerminal(svc, id), "done");
    // Otherwise the shard is too short to need a renewal.
    EXPECT_GT(ran, std::chrono::milliseconds(2 * o.retry.leaseMs));

    const Json orch =
        parseBody(svc.handle(request("GET", "/stats"))).at("orchestrator");
    EXPECT_EQ(orch.at("expired_leases_total").asU64(), 0u);
    EXPECT_EQ(orch.at("assignments_total").asU64(), 1u);
    svc.stop();
}

TEST(ServeRemote, ChecksumMismatchRejectsPartBeforeManifestCheck)
{
    Service svc(quickOptions());
    const Manifest manifest = tinyManifest();
    const HttpResponse sub = svc.handle(request(
        "POST", "/v1/jobs", {},
        "{\"manifest\": " + manifest.toJson().dump() +
            ", \"execution\": \"remote\", \"shards\": 1}"));
    ASSERT_EQ(sub.status, 202) << sub.body;
    const std::string id = parseBody(sub).at("id").asString();

    const std::string worker = registerWorker(svc, "bitrot");
    std::optional<Json> a = pollWorker(svc, worker);
    ASSERT_TRUE(a.has_value());
    Session session;
    const Manifest shard = Manifest::fromJson(a->at("manifest"));
    const ResultSet results = runManifest(session, shard);
    const std::string canon = results.toJson().dump();
    const std::uint64_t good = fnv1a(canon.data(), canon.size());

    const auto post = [&](std::uint64_t sum) {
        Json part = Json::object();
        part.set("worker", Json(worker));
        part.set("job", a->at("job"));
        part.set("shard", a->at("shard"));
        part.set("checksum", Json(sum));
        part.set("results", results.toJson());
        return svc.handle(
            request("POST", "/v1/workers/parts", {}, part.dump()));
    };

    // The payload is complete — only the checksum disagrees. Without the
    // checksum this would sail through verifyComplete with corrupted
    // metric values.
    const HttpResponse rejected = post(good + 1);
    EXPECT_EQ(rejected.status, 400);
    EXPECT_NE(parseBody(rejected).at("error").asString().find("checksum"),
              std::string::npos);

    // After backoff the shard is reassigned; a matching checksum passes.
    std::optional<Json> retry;
    for (int i = 0; i < 100 && !retry; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        retry = pollWorker(svc, worker);
    }
    ASSERT_TRUE(retry.has_value());
    EXPECT_EQ(post(good).status, 200);
    EXPECT_EQ(awaitTerminal(svc, id), "done");

    const Json stats = parseBody(svc.handle(request("GET", "/stats")));
    EXPECT_EQ(stats.at("orchestrator").at("rejected_parts_total").asU64(),
              1u);
}

// --- worker auth ---------------------------------------------------------

TEST(ServeAuth, WorkerEndpointsRequireTheTokenWhenConfigured)
{
    ServiceOptions o = quickOptions();
    o.workerToken = "s3cret";
    Service svc(o);

    const std::string body = "{\"name\": \"w\"}";
    // Missing and wrong tokens are 401 before any orchestrator state is
    // touched; the matching token works.
    EXPECT_EQ(
        svc.handle(request("POST", "/v1/workers/register", {}, body))
            .status,
        401);
    EXPECT_EQ(svc.handle(request("POST", "/v1/workers/register", {}, body,
                                 {{"x-gga-worker-token", "wrong"}}))
                  .status,
              401);
    const HttpResponse ok =
        svc.handle(request("POST", "/v1/workers/register", {}, body,
                           {{"x-gga-worker-token", "s3cret"}}));
    ASSERT_EQ(ok.status, 200) << ok.body;
    const std::string worker = parseBody(ok).at("worker").asString();

    EXPECT_EQ(svc.handle(request("POST", "/v1/workers/poll", {},
                                 "{\"worker\": \"" + worker + "\"}"))
                  .status,
              401);
    EXPECT_EQ(svc.handle(request("POST", "/v1/workers/parts", {},
                                 "{\"worker\": \"" + worker + "\"}"))
                  .status,
              401);
    EXPECT_EQ(svc.handle(request("POST", "/v1/workers/poll", {},
                                 "{\"worker\": \"" + worker + "\"}",
                                 {{"x-gga-worker-token", "s3cret"}}))
                  .status,
              204);
    // Client endpoints are unaffected by the worker token.
    EXPECT_EQ(svc.handle(request("GET", "/v1/jobs")).status, 200);
}

// --- per-tenant rate limiting --------------------------------------------

TEST(ServeRateLimit, OverRateSubmitGets429WithRetryAfter)
{
    ServiceOptions o = quickOptions();
    o.ratePerTenant = 1; // burst of 1, then ~1/s
    Service svc(o);
    const std::string body =
        "{\"manifest\": " + tinyManifest().toJson().dump() + "}";

    const HttpResponse first = svc.handle(request(
        "POST", "/v1/jobs", {}, body, {{"x-gga-tenant", "alice"}}));
    ASSERT_EQ(first.status, 202) << first.body;

    // Same tenant, same second: throttled, with a machine-readable
    // retry hint. Another tenant has its own bucket.
    const HttpResponse throttled = svc.handle(request(
        "POST", "/v1/jobs", {}, body, {{"x-gga-tenant", "alice"}}));
    EXPECT_EQ(throttled.status, 429);
    ASSERT_EQ(throttled.headers.count("Retry-After"), 1u);
    EXPECT_GE(std::stoul(throttled.headers.at("Retry-After")), 1u);
    EXPECT_EQ(svc.handle(request("POST", "/v1/jobs", {}, body,
                                 {{"x-gga-tenant", "bob"}}))
                  .status,
              202);

    const Json stats = parseBody(svc.handle(request("GET", "/stats")));
    EXPECT_EQ(stats.at("rate_limiter").at("throttled_total").asU64(), 1u);
}

TEST(ServeRateLimit, AdmissionBound429CarriesNoRetryAfter)
{
    ServiceOptions o = quickOptions();
    o.maxQueuedPerTenant = 1; // admission-bound, rate limiter off
    Service svc(o);
    const std::string body = "{\"manifest\": " +
                             tinyManifest().toJson().dump() +
                             ", \"execution\": \"remote\", \"shards\": 2}";
    ASSERT_EQ(svc.handle(request("POST", "/v1/jobs", {}, body)).status,
              202);
    const HttpResponse full =
        svc.handle(request("POST", "/v1/jobs", {}, body));
    EXPECT_EQ(full.status, 429);
    // Quota 429 clears when a job finishes, not on a clock — no header.
    EXPECT_EQ(full.headers.count("Retry-After"), 0u);
}

// --- numbers from the wire -----------------------------------------------

TEST(ServeHttp, NegativeOrMalformedWaitMsIs400)
{
    Service svc(quickOptions());
    svc.start();
    // With no workers connected, a remote job never changes state.
    const HttpResponse sub = svc.handle(request(
        "POST", "/v1/jobs", {},
        "{\"manifest\": " + tinyManifest().toJson().dump() +
            ", \"execution\": \"remote\", \"shards\": 1}"));
    ASSERT_EQ(sub.status, 202) << sub.body;
    const std::string job = "/v1/jobs/" + parseBody(sub).at("id").asString();
    // strtoull read "-1" as 2^64 - 1, a 60 s long-poll.
    EXPECT_EQ(httpRequest(svc.port(), "GET", job + "?wait_ms=-1").status,
              400);
    EXPECT_EQ(httpRequest(svc.port(), "GET", job + "?wait_ms=abc").status,
              400);
    EXPECT_EQ(httpRequest(svc.port(), "GET", job + "?since=-1").status,
              400);
    EXPECT_EQ(httpRequest(svc.port(), "GET", job + "?wait_ms=0").status,
              200);
    svc.stop();
}

TEST(ServeHttp, MalformedContentLengthIs400)
{
    Service svc(quickOptions());
    svc.start();
    // A body the server would admit, announced with a length that has
    // trailing garbage: std::stoull read "<n>abc" as n and answered 202.
    const std::string body =
        "{\"plan\": " + unitFor(AppId::Mis, "SG1").toJson().dump() + "}";
    const int fd = connectRaw(svc.port());
    ASSERT_GE(fd, 0);
    const std::string req = "POST /v1/jobs HTTP/1.1\r\nContent-Length: " +
                            std::to_string(body.size()) + "abc\r\n\r\n" +
                            body;
    ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
              static_cast<ssize_t>(req.size()));
    const std::string resp = readToClose(fd);
    ::close(fd);
    EXPECT_EQ(resp.rfind("HTTP/1.1 400", 0), 0u) << resp;
    EXPECT_EQ(httpRequest(svc.port(), "GET", "/healthz").status, 200);
    EXPECT_EQ(parseBody(svc.handle(request("GET", "/stats")))
                  .at("jobs")
                  .at("total")
                  .asU64(),
              0u);
    svc.stop();
}

// --- slow-loris defense --------------------------------------------------

TEST(ServeHttp, StalledRequestTimesOutWith408)
{
    ServiceOptions o = quickOptions();
    o.ioTimeoutMs = 50;
    Service svc(o);
    svc.start();

    const int fd = connectRaw(svc.port());
    ASSERT_GE(fd, 0);
    // Send half a request line and stall — the classic slow loris.
    const char torso[] = "POST /v1/jobs HTT";
    ASSERT_GT(::send(fd, torso, sizeof torso - 1, 0), 0);

    std::string buf(4096, '\0');
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    ASSERT_GT(n, 0) << "connection closed without a response";
    buf.resize(static_cast<std::size_t>(n));
    EXPECT_NE(buf.find("408"), std::string::npos) << buf;
    ::close(fd);

    // The stalled connection pinned nothing: normal requests still work.
    EXPECT_EQ(httpRequest(svc.port(), "GET", "/healthz").status, 200);
    svc.stop();
}

// --- connection bounds --------------------------------------------------

TEST(ServeConnections, SequentialOneShotRequestsKeepMemoryFlat)
{
    Service svc(quickOptions());
    svc.start();
    ASSERT_EQ(httpRequest(svc.port(), "GET", "/healthz").status, 200);
    const std::uint64_t before = vmSizeKib();

    // Every request closes its connection. A thread left unjoined keeps
    // its whole stack mapped (8 MiB of address space each, so 2,000 of
    // them would add about 16 GiB); reaped ones cost nothing. Back-to-
    // back one-shot connections also get the same fd number over and
    // over, which any bookkeeping done after close() would trip on.
    constexpr int kRequests = 2000;
    int ok = 0;
    for (int i = 0; i < kRequests; ++i)
        ok += httpRequest(svc.port(), "GET", "/healthz").status == 200;
    EXPECT_EQ(ok, kRequests);

    const std::int64_t grownKib = static_cast<std::int64_t>(vmSizeKib()) -
                                  static_cast<std::int64_t>(before);
    EXPECT_LT(grownKib, 256 << 10) << "VmSize grew by " << grownKib
                                   << " KiB over " << kRequests
                                   << " requests";
    EXPECT_EQ(httpStats(svc).at("connections_accepted_total").asU64(),
              static_cast<std::uint64_t>(kRequests) + 1);
    EXPECT_EQ(httpStats(svc).at("connections_rejected_total").asU64(), 0u);
    svc.stop();
}

TEST(ServeConnections, CapAnswers503UntilConnectionsClose)
{
    Service svc(quickOptions()); // 30 s read deadline: idlers stay put
    svc.start();

    // Connect in steps the listen backlog (64) can hold, so no SYN is
    // dropped and retried a second later.
    std::vector<int> idle;
    while (idle.size() < HttpServer::kMaxConnections) {
        for (int i = 0; i < 32; ++i) {
            const int fd = connectRaw(svc.port());
            ASSERT_GE(fd, 0) << "connect " << idle.size();
            idle.push_back(fd);
        }
        ASSERT_TRUE(awaitLiveConnections(svc, idle.size()));
    }

    // One past the cap: answered 503 with a retry hint, never served.
    const int extra = connectRaw(svc.port());
    ASSERT_GE(extra, 0);
    const std::string reply = readToClose(extra);
    ::close(extra);
    EXPECT_EQ(reply.rfind("HTTP/1.1 503 ", 0), 0u) << reply;
    EXPECT_NE(reply.find("Retry-After: 1\r\n"), std::string::npos) << reply;
    const Json full = httpStats(svc);
    EXPECT_EQ(full.at("connections_live").asU64(),
              HttpServer::kMaxConnections);
    EXPECT_EQ(full.at("connections_rejected_total").asU64(), 1u);

    // Once the idlers hang up, their threads leave and service resumes.
    for (const int fd : idle)
        ::close(fd);
    ASSERT_TRUE(awaitLiveConnections(svc, 0));
    EXPECT_EQ(httpRequest(svc.port(), "GET", "/healthz").status, 200);
    svc.stop();
}

TEST(ServeConnections, FailedThreadStartAnswers503AndKeepsAccepting)
{
    faults::configure("http.thread.fail=1"); // as if pthread_create failed
    Service svc(quickOptions());
    svc.start();
    EXPECT_EQ(httpRequest(svc.port(), "GET", "/healthz").status, 503);
    EXPECT_EQ(httpRequest(svc.port(), "GET", "/healthz").status, 200);
    const Json http = httpStats(svc);
    faults::configure("");
    EXPECT_EQ(http.at("connections_rejected_total").asU64(), 1u);
    EXPECT_EQ(http.at("connections_accepted_total").asU64(), 1u);
    svc.stop();
}

TEST(ServeConnections, StopJoinsParkedLongPollAndIdleKeepAlives)
{
    Service svc(quickOptions());
    // With no workers connected, a remote job never changes state.
    const HttpResponse sub = svc.handle(request(
        "POST", "/v1/jobs", {},
        "{\"manifest\": " + tinyManifest().toJson().dump() +
            ", \"execution\": \"remote\", \"shards\": 1}"));
    ASSERT_EQ(sub.status, 202) << sub.body;
    const Json snap = parseBody(sub);
    const std::string id = snap.at("id").asString();
    const std::size_t threadsBefore = threadCount();
    svc.start();

    // Two keep-alive connections that answered once and now sit idle.
    std::vector<int> fds;
    for (int i = 0; i < 2; ++i) {
        const int fd = connectRaw(svc.port());
        ASSERT_GE(fd, 0);
        const std::string ping = "GET /healthz HTTP/1.1\r\n"
                                 "Content-Length: 0\r\n\r\n";
        ASSERT_EQ(::send(fd, ping.data(), ping.size(), 0),
                  static_cast<ssize_t>(ping.size()));
        char head[256];
        ASSERT_GT(::recv(fd, head, sizeof head, 0), 0);
        fds.push_back(fd);
    }
    // And a long-poll parked on the job for far longer than the test.
    const int poll = connectRaw(svc.port());
    ASSERT_GE(poll, 0);
    const std::string park =
        "GET /v1/jobs/" + id + "?wait_ms=600000&since=" +
        std::to_string(snap.at("version").asU64()) +
        " HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
    ASSERT_EQ(::send(poll, park.data(), park.size(), 0),
              static_cast<ssize_t>(park.size()));
    fds.push_back(poll);
    ASSERT_TRUE(awaitLiveConnections(svc, 3));
    // Give the poll time to get past the socket and park in its handler.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    const auto t0 = std::chrono::steady_clock::now();
    svc.stop();
    const double stopS = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
    EXPECT_LT(stopS, 10.0);
    EXPECT_EQ(httpStats(svc).at("connections_live").asU64(), 0u);
    // Every thread start() began has exited: accept, ticker, and all
    // three connections. The kernel drops a thread from /proc/self/task
    // a moment after its join returns, hence the short poll.
    for (int i = 0; i < 200 && threadCount() != threadsBefore; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(threadCount(), threadsBefore);
    for (const int fd : fds)
        ::close(fd);
    // Destroying a joinable std::thread would terminate this binary, so
    // getting past ~Service() also proves every thread was joined.
}

// --- end-to-end fault injection ------------------------------------------

TEST(ServeFaultInjection, ThinPartIsRejectedThenRetriedToDone)
{
    faults::configure("");
    ServiceOptions o = quickOptions();
    o.retry.leaseMs = 10000; // no expiry races: the retry must come from
                             // the rejected part, not a lost lease
    o.workerToken = "tok";   // exercises gga_worker --token end to end
    Service svc(o);
    svc.start();

    const Manifest manifest = tinyManifest();
    const HttpResponse sub = svc.handle(request(
        "POST", "/v1/jobs", {},
        "{\"manifest\": " + manifest.toJson().dump() +
            ", \"execution\": \"remote\", \"shards\": 1}"));
    ASSERT_EQ(sub.status, 202) << sub.body;
    const std::string id = parseBody(sub).at("id").asString();

    // First part the real worker client posts is thinned by one row:
    // its checksum matches the thinned payload, so it is the manifest
    // verification that rejects it, and the shard re-runs.
    faults::configure("worker.part.thin=1");
    WorkerClientOptions w;
    w.port = svc.port();
    w.name = "flaky";
    w.token = "tok";
    w.pollMs = 2;
    w.idleExitMs = 500;
    Session workerSession;
    const std::size_t posted = runWorkerClient(workerSession, w);

    EXPECT_EQ(posted, 1u); // only the clean retry counted
    EXPECT_EQ(awaitTerminal(svc, id), "done");

    // Stats read while the plan is still armed — configure("") resets
    // the injection counters.
    const Json stats = parseBody(svc.handle(request("GET", "/stats")));
    faults::configure("");
    EXPECT_EQ(stats.at("orchestrator").at("rejected_parts_total").asU64(),
              1u);
    EXPECT_EQ(stats.at("orchestrator").at("completed_shards_total").asU64(),
              1u);
    EXPECT_GE(stats.at("faults").at("injected_total").asU64(), 1u);
    EXPECT_TRUE(stats.at("faults").at("enabled").asBool());

    Session reference;
    const ResultSet expected = runManifest(reference, manifest);
    const std::optional<ResultSet> got = svc.jobs().finalResults(id);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->toJson().dump(), expected.toJson().dump());
    svc.stop();
}

TEST(ServeFaultInjection, WorkerReportsAShardItCannotRunAndTheJobFails)
{
    // A connected worker that cannot run its shard reports why and keeps
    // polling: the shard is retried like a rejected part, and the job
    // fails with the unit's reason instead of waiting on a dead worker.
    ServiceOptions o = quickOptions();
    o.retry.leaseMs = 10000; // the retry must come from the report
    o.retry.maxAttempts = 2;
    Service svc(o);
    svc.start();
    const HttpResponse sub = svc.handle(request(
        "POST", "/v1/jobs", {},
        "{\"manifest\": {\"meta\": {}, \"units\": [{\"app\": \"PR\", "
        "\"input\": {\"path\": \"no/such/input.mtx\"}, \"config\": "
        "\"TG0\"}]}, \"execution\": \"remote\", \"shards\": 1}"));
    ASSERT_EQ(sub.status, 202) << sub.body;
    const std::string id = parseBody(sub).at("id").asString();

    WorkerClientOptions w;
    w.port = svc.port();
    w.pollMs = 2;
    w.idleExitMs = 300;
    Session workerSession;
    std::size_t posted = 99;
    EXPECT_NO_THROW(posted = runWorkerClient(workerSession, w));
    EXPECT_EQ(posted, 0u);

    EXPECT_EQ(awaitTerminal(svc, id), "failed");
    const std::string error =
        parseBody(svc.handle(request("GET", "/v1/jobs/" + id)))
            .at("error")
            .asString();
    EXPECT_NE(error.find("exhausted retries: work unit 'PR-no/such/"
                         "input.mtx@TG0': cannot build the input graph: "
                         "cannot open MatrixMarket file"),
              std::string::npos)
        << error;
    const Json orch =
        parseBody(svc.handle(request("GET", "/stats"))).at("orchestrator");
    EXPECT_EQ(orch.at("rejected_parts_total").asU64(), 2u);
    svc.stop();
}

// --- policy arithmetic ---------------------------------------------------

TEST(RetryPolicy, BackoffDoublesAndCaps)
{
    RetryPolicy p;
    p.retryBaseMs = 500;
    p.retryCapMs = 8000;
    EXPECT_EQ(p.backoffMs(1), 500u);
    EXPECT_EQ(p.backoffMs(2), 1000u);
    EXPECT_EQ(p.backoffMs(3), 2000u);
    EXPECT_EQ(p.backoffMs(5), 8000u);
    EXPECT_EQ(p.backoffMs(20), 8000u); // no overflow wraparound
    // Doubling past the cap would wrap: the delay caps instead.
    p.retryBaseMs = 3000000000u;
    p.retryCapMs = 4000000000u;
    EXPECT_EQ(p.backoffMs(1), 3000000000u);
    EXPECT_EQ(p.backoffMs(2), 4000000000u);
    EXPECT_EQ(p.backoffMs(3), 4000000000u);
    p.retryBaseMs = 2147483649u;
    p.retryCapMs = UINT_MAX;
    EXPECT_EQ(p.backoffMs(1), 2147483649u);
    EXPECT_EQ(p.backoffMs(2), UINT_MAX);
    EXPECT_EQ(p.backoffMs(3), UINT_MAX);
}

TEST(LatencyHistogramTest, BucketsByLog2)
{
    LatencyHistogram h;
    h.record(0.5); // bucket 0: < 1 ms
    h.record(3.0); // bucket 2: [2, 4)
    h.record(3.5);
    h.record(1e9); // clamps into the top bucket
    EXPECT_EQ(h.count, 4u);
    EXPECT_DOUBLE_EQ(h.maxMs, 1e9);
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[2], 2u);
    EXPECT_EQ(h.buckets[LatencyHistogram::kBuckets - 1], 1u);
}

} // namespace
} // namespace gga
