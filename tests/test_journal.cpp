/**
 * @file
 * Tests for the write-ahead job journal and crash recovery: record
 * round trips, one file per live job (finishing one deletes its file and
 * touches no other), torn tails confined to their job, admit records no
 * server could have acknowledged, corrupt part files, the journal at the
 * admission bound, and full Service restarts
 * — a recovered remote job never re-executes its completed shards and
 * still merges byte-identically, and a recovered local job simply
 * re-runs to the same bytes.
 */

#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "eval/run.hpp"
#include "harness/figures.hpp"
#include "harness/workloads.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "support/json.hpp"

namespace gga {
namespace {

WorkUnit
unitFor(AppId app, const char* cfg)
{
    WorkUnit u;
    u.app = app;
    u.preset = GraphPreset::Dct;
    u.scale = 0.05;
    u.config = parseConfig(cfg);
    return u;
}

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

/** A fresh empty state dir under the test temp root. */
std::string
freshDir(const std::string& name)
{
    const std::string dir = testing::TempDir() + "gga_journal_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

HttpRequest
request(std::string method, std::string path,
        std::map<std::string, std::string> query = {},
        std::string body = {})
{
    HttpRequest r;
    r.method = std::move(method);
    r.path = std::move(path);
    r.target = r.path;
    r.query = std::move(query);
    r.body = std::move(body);
    return r;
}

ServiceOptions
quickOptions(const std::string& stateDir)
{
    ServiceOptions o;
    o.port = 0;
    o.session.threads = 2;
    o.retry.leaseMs = 40;
    o.retry.retryBaseMs = 1;
    o.retry.retryCapMs = 4;
    o.retry.maxAttempts = 3;
    o.tickMs = 5;
    o.stateDir = stateDir;
    return o;
}

std::string
awaitTerminal(Service& svc, const std::string& id)
{
    std::uint64_t since = 0;
    for (int i = 0; i < 600; ++i) {
        const HttpResponse r = svc.handle(request(
            "GET", "/v1/jobs/" + id,
            {{"wait_ms", "200"}, {"since", std::to_string(since)}}));
        EXPECT_EQ(r.status, 200) << r.body;
        const Json j = Json::parse(r.body);
        const std::string state = j.at("state").asString();
        if (state == "done" || state == "failed" || state == "canceled")
            return state;
        since = j.at("version").asU64();
    }
    return "timeout";
}

// --- Journal unit tests --------------------------------------------------

/** The bytes of one file under the state dir. */
std::string
slurp(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(f), {});
}

/** The names of the entries of one state-dir subdirectory. */
std::set<std::string>
listDir(const std::string& dir)
{
    std::set<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator(dir))
        names.insert(e.path().filename().string());
    return names;
}

TEST(Journal, RoundTripRecoversLiveJobsInAdmissionOrder)
{
    const std::string dir = freshDir("roundtrip");
    const Manifest m = tinyManifest();
    Session session;
    const ResultSet part0 =
        runManifest(session, m.shard(0, 2)); // a real shard part
    const std::string part0Json = part0.toJson().dump();

    {
        Journal j(dir);
        j.admit("job-2", "alice", true, 2, m);
        j.part("job-2", 0, part0Json);
        j.admit("job-10", "bob", false, 0, m);
        // A part for an unknown (already finished) job is a quiet
        // no-op, not a resurrection: neither file is created.
        j.part("job-99", 0, part0Json);
        EXPECT_FALSE(std::filesystem::exists(dir + "/jobs/job-99.jsonl"));
        EXPECT_FALSE(std::filesystem::exists(dir + "/parts/job-99.s0.json"));
    }
    EXPECT_EQ(listDir(dir + "/jobs"),
              (std::set<std::string>{"job-2.jsonl", "job-10.jsonl"}));

    Journal j(dir);
    EXPECT_FALSE(j.tailWasDamaged());
    ASSERT_EQ(j.recovered().size(), 2u);
    // Admission order survives, including ids that don't sort as text
    // ("job-10" < "job-2" lexically).
    const JobTable::JobRestore& first = j.recovered()[0];
    EXPECT_EQ(first.id, "job-2");
    EXPECT_EQ(first.tenant, "alice");
    EXPECT_TRUE(first.remote);
    EXPECT_EQ(first.shards, 2u);
    EXPECT_EQ(first.manifest.toJson().dump(), m.toJson().dump());
    EXPECT_EQ(first.doneShards, std::set<std::size_t>{0});
    EXPECT_EQ(ResultSet::fromRows(first.rows).toJson().dump(), part0Json);
    EXPECT_EQ(j.recovered()[1].id, "job-10");
    EXPECT_FALSE(j.recovered()[1].remote);
    // The live files count as they are: two admits and one part.
    EXPECT_EQ(j.statsJson().at("records").asU64(), 3u);
    EXPECT_EQ(j.statsJson().at("bytes").asU64(),
              slurp(dir + "/jobs/job-2.jsonl").size() +
                  slurp(dir + "/jobs/job-10.jsonl").size());
}

TEST(Journal, FinishDeletesTheJobFileAndItsParts)
{
    const std::string dir = freshDir("finish");
    const Manifest m = tinyManifest();
    Journal j(dir);
    j.admit("job-1", "t", true, 2, m);
    j.part("job-1", 0, "{\"results\":[]}");
    EXPECT_EQ(j.statsJson().at("live_jobs").asU64(), 1u);
    EXPECT_EQ(j.statsJson().at("records").asU64(), 2u);

    j.finish("job-1");
    const Json stats = j.statsJson();
    EXPECT_EQ(stats.at("live_jobs").asU64(), 0u);
    EXPECT_EQ(stats.at("records").asU64(), 0u);
    EXPECT_EQ(stats.at("bytes").asU64(), 0u);
    EXPECT_EQ(stats.at("compactions_total").asU64(), 1u);
    EXPECT_TRUE(std::filesystem::is_empty(dir + "/jobs"));
    EXPECT_TRUE(std::filesystem::is_empty(dir + "/parts"));
    // finish() on an unknown job is idempotent.
    j.finish("job-1");
    EXPECT_EQ(j.statsJson().at("compactions_total").asU64(), 1u);

    Journal replay(dir);
    EXPECT_TRUE(replay.recovered().empty());
}

TEST(Journal, FinishingAJobWritesNoOtherJobsFile)
{
    const std::string dir = freshDir("isolation");
    // The served benchmark's batch job: 174 units of manifest JSON.
    const Manifest fig5 = figureSet("fig5", 0.01).manifest;
    Journal j(dir);
    j.admit("job-1", "batch", false, 0, fig5);
    const std::string before = slurp(dir + "/jobs/job-1.jsonl");
    ASSERT_FALSE(before.empty());

    j.admit("job-2", "t", true, 2, tinyManifest());
    j.part("job-2", 1, "{\"results\":[]}");
    j.finish("job-2");
    EXPECT_EQ(slurp(dir + "/jobs/job-1.jsonl"), before);
    EXPECT_EQ(listDir(dir + "/jobs"), std::set<std::string>{"job-1.jsonl"});
    EXPECT_TRUE(std::filesystem::is_empty(dir + "/parts"));
    EXPECT_EQ(j.statsJson().at("bytes").asU64(), before.size());
}

TEST(Journal, CrashBetweenDeletingAJobAndItsPartsLeavesOrphansReplayDeletes)
{
    const std::string dir = freshDir("orphans");
    const Manifest m = tinyManifest();
    {
        // finish() deleted job-1's file, then the process "died" before
        // it deleted the part files.
        Journal j(dir);
        j.admit("job-1", "t", true, 2, m);
        j.part("job-1", 0, "{\"results\":[]}");
        j.admit("job-2", "t", false, 0, m);
        std::filesystem::remove(dir + "/jobs/job-1.jsonl");
    }
    // A writer that crashed mid-rename left a temp file too.
    std::ofstream(dir + "/parts/job-2.s0.json.tmp.1") << "{";
    Journal j(dir);
    ASSERT_EQ(j.recovered().size(), 1u);
    EXPECT_EQ(j.recovered()[0].id, "job-2");
    EXPECT_FALSE(j.tailWasDamaged());
    // The finished job's part file and the temp file were swept.
    EXPECT_TRUE(std::filesystem::is_empty(dir + "/parts"));
}

TEST(Journal, TornTailIsDroppedAndEarlierRecordsSurvive)
{
    const std::string dir = freshDir("torntail");
    const Manifest m = tinyManifest();
    {
        Journal j(dir);
        j.admit("job-1", "t", true, 2, m);
        j.part("job-1", 1, "{\"results\":[]}");
    }
    const std::string good = slurp(dir + "/jobs/job-1.jsonl");
    {
        // A crash mid-append leaves a half-written last line.
        std::ofstream f(dir + "/jobs/job-1.jsonl", std::ios::app);
        f << "{\"t\":\"part\",\"job\":\"job-1\",\"sha";
    }
    Journal j(dir);
    EXPECT_TRUE(j.tailWasDamaged());
    EXPECT_TRUE(j.statsJson().at("tail_damaged").asBool());
    ASSERT_EQ(j.recovered().size(), 1u);
    EXPECT_EQ(j.recovered()[0].id, "job-1");
    EXPECT_EQ(j.recovered()[0].doneShards, std::set<std::size_t>{1});

    // Replay truncated the file after its last good record: a second
    // replay is clean.
    EXPECT_EQ(slurp(dir + "/jobs/job-1.jsonl"), good);
    Journal again(dir);
    EXPECT_FALSE(again.tailWasDamaged());
    EXPECT_EQ(again.recovered().size(), 1u);
}

TEST(Journal, GarbageTailAfterGoodRecordsIsTolerated)
{
    const std::string dir = freshDir("garbage");
    const Manifest m = tinyManifest();
    {
        Journal j(dir);
        j.admit("job-1", "t", false, 0, m);
    }
    {
        std::ofstream f(dir + "/jobs/job-1.jsonl", std::ios::app);
        f << "\xff\xfe not json at all\n{\"t\":\"state\"}\n";
    }
    Journal j(dir);
    EXPECT_TRUE(j.tailWasDamaged());
    ASSERT_EQ(j.recovered().size(), 1u);
}

TEST(Journal, DamageInOneJobFileLeavesOtherJobsIntact)
{
    const std::string dir = freshDir("isolated_damage");
    const Manifest m = tinyManifest();
    {
        Journal j(dir);
        j.admit("job-1", "t", true, 2, m);
        j.admit("job-2", "t", true, 2, m);
        j.part("job-2", 0, "{\"results\":[]}");
        {
            std::ofstream f(dir + "/jobs/job-1.jsonl", std::ios::app);
            f << "garbage\n";
        }
        // Written after the damage, so lost with it.
        j.part("job-1", 0, "{\"results\":[]}");
        j.part("job-2", 1, "{\"results\":[]}");
    }
    Journal j(dir);
    EXPECT_TRUE(j.tailWasDamaged());
    ASSERT_EQ(j.recovered().size(), 2u);
    EXPECT_EQ(j.recovered()[0].id, "job-1");
    EXPECT_TRUE(j.recovered()[0].doneShards.empty());
    EXPECT_EQ(j.recovered()[1].id, "job-2");
    EXPECT_EQ(j.recovered()[1].doneShards,
              (std::set<std::size_t>{0, 1}));
    EXPECT_EQ(listDir(dir + "/parts"),
              (std::set<std::string>{"job-2.s0.json", "job-2.s1.json"}));

    Journal again(dir);
    EXPECT_FALSE(again.tailWasDamaged());
    ASSERT_EQ(again.recovered().size(), 2u);
    EXPECT_TRUE(again.recovered()[0].doneShards.empty());
    EXPECT_EQ(again.recovered()[1].doneShards.size(), 2u);
}

TEST(Journal, TornAdmitDropsOnlyThatJob)
{
    const std::string dir = freshDir("tornadmit");
    const Manifest m = tinyManifest();
    {
        Journal j(dir);
        j.admit("job-1", "t", false, 0, m);
    }
    {
        // job-2's admit was never completed, so never acknowledged.
        std::ofstream f(dir + "/jobs/job-2.jsonl");
        f << "{\"t\":\"admit\",\"job\":\"job-2\",\"tena";
    }
    Journal j(dir);
    EXPECT_TRUE(j.tailWasDamaged());
    ASSERT_EQ(j.recovered().size(), 1u);
    EXPECT_EQ(j.recovered()[0].id, "job-1");
    EXPECT_EQ(listDir(dir + "/jobs"), std::set<std::string>{"job-1.jsonl"});
}

TEST(Journal, AdmitRecordsNoServerCouldAcknowledgeAreDropped)
{
    // Service::submitJob refuses an empty manifest, a remote job outside
    // 1 <= shards <= units and a local job with shards. Replay deletes
    // such a file like a torn admit: a job it recovered could never end
    // (or would abort the server).
    struct Case
    {
        const char* name;
        bool remote;
        std::size_t shards;
        Manifest manifest;
    };
    const Manifest m = tinyManifest();
    for (const Case& c :
         {Case{"zero_shards", true, 0, m},
          Case{"huge_shards", true, 4000000000000, m},
          Case{"no_units", false, 0, Manifest{}},
          Case{"local_shards", false, 2, m}}) {
        SCOPED_TRACE(c.name);
        const std::string dir = freshDir(std::string("unacked_") + c.name);
        {
            Journal j(dir);
            j.admit("job-1", "t", c.remote, c.shards, c.manifest);
        }
        Service svc(quickOptions(dir));
        const Json stats =
            Json::parse(svc.handle(request("GET", "/stats")).body);
        EXPECT_TRUE(stats.at("journal").at("tail_damaged").asBool());
        EXPECT_TRUE(Json::parse(svc.handle(request("GET", "/v1/jobs")).body)
                        .at("jobs")
                        .asArray()
                        .empty());
        EXPECT_TRUE(std::filesystem::is_empty(dir + "/jobs"));
    }
}

TEST(Journal, OlderBuildsLogIsIgnored)
{
    const std::string dir = freshDir("oldlog");
    std::filesystem::create_directories(dir);
    const std::string old =
        "{\"t\":\"admit\",\"job\":\"job-1\",\"tenant\":\"t\","
        "\"remote\":false,\"shards\":0,\"manifest\":" +
        tinyManifest().toJson().dump() + "}\n";
    std::ofstream(dir + "/journal.jsonl") << old;
    Journal j(dir);
    EXPECT_TRUE(j.recovered().empty());
    EXPECT_FALSE(j.tailWasDamaged());
    EXPECT_EQ(slurp(dir + "/journal.jsonl"), old); // left as it was
}

TEST(Journal, CorruptPartFileDropsOnlyThatShard)
{
    const std::string dir = freshDir("corruptpart");
    const Manifest m = tinyManifest();
    {
        Journal j(dir);
        j.admit("job-1", "t", true, 2, m);
        j.part("job-1", 0, "{\"results\":[]}");
        j.part("job-1", 1, "{\"results\":[]}");
        // A record for a shard the job does not have is dropped too.
        j.part("job-1", 7, "{\"results\":[]}");
    }
    {
        // Flip the stored bytes so the recorded checksum no longer
        // matches — bit rot on disk.
        std::ofstream f(dir + "/parts/job-1.s0.json", std::ios::trunc);
        f << "{\"results\": [] }";
    }
    Journal j(dir);
    ASSERT_EQ(j.recovered().size(), 1u);
    // Shard 0 was dropped and will re-run; shard 7 never existed.
    EXPECT_EQ(j.recovered()[0].doneShards, std::set<std::size_t>{1});
    EXPECT_FALSE(j.tailWasDamaged()); // a bad part is not tail damage
    EXPECT_EQ(j.statsJson().at("dropped_parts").asU64(), 2u);
    EXPECT_FALSE(std::filesystem::exists(dir + "/parts/job-1.s7.json"));
}

// --- Service restart -----------------------------------------------------

/** Register a worker through the wire layer; returns its id. */
std::string
registerWorker(Service& svc, const std::string& name)
{
    const HttpResponse r = svc.handle(request(
        "POST", "/v1/workers/register", {}, "{\"name\": \"" + name + "\"}"));
    EXPECT_EQ(r.status, 200);
    return Json::parse(r.body).at("worker").asString();
}

std::optional<Json>
pollWorker(Service& svc, const std::string& worker)
{
    const HttpResponse r = svc.handle(request(
        "POST", "/v1/workers/poll", {}, "{\"worker\": \"" + worker + "\"}"));
    if (r.status == 204)
        return std::nullopt;
    EXPECT_EQ(r.status, 200) << r.body;
    return Json::parse(r.body);
}

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

TEST(ServeRecovery, RestartMidRemoteJobNeverRerunsCompletedShards)
{
    const std::string dir = freshDir("restart_remote");
    const Manifest manifest = tinyManifest();
    Session workerSession;
    std::string id;
    std::uint64_t doneShard = 0;

    {
        Service svc(quickOptions(dir));
        const HttpResponse sub = svc.handle(request(
            "POST", "/v1/jobs", {},
            "{\"manifest\": " + manifest.toJson().dump() +
                ", \"execution\": \"remote\", \"shards\": 2}"));
        ASSERT_EQ(sub.status, 202) << sub.body;
        id = Json::parse(sub.body).at("id").asString();

        const std::string worker = registerWorker(svc, "doomed");
        std::optional<Json> a0 = pollWorker(svc, worker);
        ASSERT_TRUE(a0.has_value());
        doneShard = a0->at("shard").asU64();
        const HttpResponse posted =
            runAndPost(svc, workerSession, worker, *a0);
        ASSERT_EQ(posted.status, 200) << posted.body;
        // Service destructs here with the second shard still leased out
        // — the crash, minus the SIGKILL (serve_crash_smoke.sh covers
        // the real-process version).
    }

    Service svc(quickOptions(dir));
    // The job is back under its original id, still running.
    const HttpResponse snap =
        svc.handle(request("GET", "/v1/jobs/" + id));
    ASSERT_EQ(snap.status, 200) << snap.body;
    EXPECT_EQ(Json::parse(snap.body).at("state").asString(), "running");

    Json stats = Json::parse(svc.handle(request("GET", "/stats")).body);
    EXPECT_EQ(stats.at("journal").at("recovered_jobs").asU64(), 1u);
    EXPECT_EQ(stats.at("orchestrator").at("recovered_parts_total").asU64(),
              1u);
    EXPECT_EQ(stats.at("orchestrator").at("completed_shards_total").asU64(),
              0u);

    // Only the unfinished shard is handed out; the recovered one is
    // done and never re-leased.
    const std::string worker = registerWorker(svc, "successor");
    std::optional<Json> a = pollWorker(svc, worker);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->at("job").asString(), id);
    EXPECT_NE(a->at("shard").asU64(), doneShard);
    EXPECT_FALSE(pollWorker(svc, worker).has_value());

    EXPECT_EQ(runAndPost(svc, workerSession, worker, *a).status, 200);
    EXPECT_EQ(awaitTerminal(svc, id), "done");

    // Exactly one shard was executed by this process; the merged result
    // is still byte-identical to a single in-process run.
    stats = Json::parse(svc.handle(request("GET", "/stats")).body);
    EXPECT_EQ(stats.at("orchestrator").at("completed_shards_total").asU64(),
              1u);
    Session reference;
    const ResultSet expected = runManifest(reference, manifest);
    const std::optional<ResultSet> got = svc.jobs().finalResults(id);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->toJson().dump(), expected.toJson().dump());

    // Done -> its files are gone: a third boot has nothing to recover.
    const Json jstats = Json::parse(
        svc.handle(request("GET", "/stats")).body);
    EXPECT_EQ(jstats.at("journal").at("live_jobs").asU64(), 0u);
    EXPECT_TRUE(std::filesystem::is_empty(dir + "/jobs"));
    EXPECT_TRUE(std::filesystem::is_empty(dir + "/parts"));
}

TEST(ServeRecovery, RestartWithAllShardsRecoveredFinishesImmediately)
{
    const std::string dir = freshDir("restart_alldone");
    const Manifest manifest = tinyManifest();
    Session workerSession;
    std::string id;

    {
        Service svc(quickOptions(dir));
        const HttpResponse sub = svc.handle(request(
            "POST", "/v1/jobs", {},
            "{\"manifest\": " + manifest.toJson().dump() +
                ", \"execution\": \"remote\", \"shards\": 2}"));
        ASSERT_EQ(sub.status, 202) << sub.body;
        id = Json::parse(sub.body).at("id").asString();
        const std::string worker = registerWorker(svc, "w");
        std::optional<Json> a0 = pollWorker(svc, worker);
        std::optional<Json> a1 = pollWorker(svc, worker);
        ASSERT_TRUE(a0 && a1);
        ASSERT_EQ(runAndPost(svc, workerSession, worker, *a0).status, 200);
        ASSERT_EQ(runAndPost(svc, workerSession, worker, *a1).status, 200);
        ASSERT_EQ(awaitTerminal(svc, id), "done");
        // Rewind the clock: re-journal the job as if the crash hit after
        // both parts landed but before its file was deleted. (The public
        // API deletes done jobs instantly, so fabricate the crash state.)
        Journal j(dir);
        j.admit(id, "default", true, 2, manifest);
        j.part(id, 0,
               runManifest(workerSession, manifest.shard(0, 2))
                   .toJson()
                   .dump());
        j.part(id, 1,
               runManifest(workerSession, manifest.shard(1, 2))
                   .toJson()
                   .dump());
    }

    Service svc(quickOptions(dir));
    EXPECT_EQ(awaitTerminal(svc, id), "done");
    const Json stats =
        Json::parse(svc.handle(request("GET", "/stats")).body);
    EXPECT_EQ(stats.at("orchestrator").at("recovered_parts_total").asU64(),
              2u);
    EXPECT_EQ(stats.at("orchestrator").at("completed_shards_total").asU64(),
              0u); // nothing re-executed
    // Finishing at restore deleted the job's files like any finish.
    EXPECT_EQ(stats.at("journal").at("live_jobs").asU64(), 0u);
    EXPECT_TRUE(std::filesystem::is_empty(dir + "/jobs"));
    EXPECT_TRUE(std::filesystem::is_empty(dir + "/parts"));
    Session reference;
    const ResultSet expected = runManifest(reference, manifest);
    const std::optional<ResultSet> got = svc.jobs().finalResults(id);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->toJson().dump(), expected.toJson().dump());
}

TEST(ServeRecovery, RecoveredLocalJobRerunsToTheSameBytes)
{
    const std::string dir = freshDir("restart_local");
    const Manifest manifest = tinyManifest();
    {
        // A local job that was admitted but never finished: journal it
        // by hand (a live Service would have raced it to done).
        Journal j(dir);
        j.admit("job-5", "carol", false, 0, manifest);
    }

    Service svc(quickOptions(dir));
    EXPECT_EQ(awaitTerminal(svc, "job-5"), "done");
    const Json snap = Json::parse(
        svc.handle(request("GET", "/v1/jobs/job-5")).body);
    EXPECT_EQ(snap.at("tenant").asString(), "carol");

    Session reference;
    const ResultSet expected = runManifest(reference, manifest);
    const std::optional<ResultSet> got = svc.jobs().finalResults("job-5");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->toJson().dump(), expected.toJson().dump());

    // New admissions resume numbering past the recovered id.
    const HttpResponse sub = svc.handle(request(
        "POST", "/v1/jobs", {},
        "{\"manifest\": " + manifest.toJson().dump() + "}"));
    ASSERT_EQ(sub.status, 202);
    EXPECT_EQ(Json::parse(sub.body).at("id").asString(), "job-6");
}

TEST(ServeRecovery, JournalHoldsOneFilePerLiveJobUpToTheAdmissionBound)
{
    const std::string dir = freshDir("bound");
    ServiceOptions o = quickOptions(dir);
    o.session.threads = 1;
    o.maxQueuedPerTenant = 3;
    Service svc(o);
    // Park the only worker so every job stays live. The gate is declared
    // after svc: a failed assertion destroys it first, which releases the
    // worker before the service drains.
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    svc.session().executor().post([opened] { opened.wait(); });
    while (svc.session().executorStats().running != 1)
        std::this_thread::yield();

    const auto submit = [&svc](const char* tenant) {
        Json body = Json::object();
        body.set("tenant", Json(tenant));
        body.set("plan", unitFor(AppId::Mis, "SG1").toJson());
        return svc.handle(request("POST", "/v1/jobs", {}, body.dump()));
    };
    std::vector<std::string> ids;
    for (const char* tenant : {"alice", "bob"})
        for (std::size_t i = 0; i < o.maxQueuedPerTenant; ++i) {
            const HttpResponse r = submit(tenant);
            ASSERT_EQ(r.status, 202) << r.body;
            ids.push_back(Json::parse(r.body).at("id").asString());
        }
    const std::size_t live = 2 * o.maxQueuedPerTenant;
    EXPECT_EQ(listDir(dir + "/jobs").size(), live);
    Json journal = Json::parse(svc.handle(request("GET", "/stats")).body)
                       .at("journal");
    EXPECT_EQ(journal.at("live_jobs").asU64(), live);
    EXPECT_EQ(journal.at("records").asU64(), live);

    // At the bound: 429, and no file for the refused job.
    const HttpResponse refused = submit("alice");
    EXPECT_EQ(refused.status, 429) << refused.body;
    EXPECT_EQ(listDir(dir + "/jobs").size(), live);

    gate.set_value();
    for (const std::string& id : ids)
        EXPECT_EQ(awaitTerminal(svc, id), "done");
    EXPECT_TRUE(std::filesystem::is_empty(dir + "/jobs"));
    EXPECT_TRUE(std::filesystem::is_empty(dir + "/parts"));
    journal = Json::parse(svc.handle(request("GET", "/stats")).body)
                  .at("journal");
    EXPECT_EQ(journal.at("live_jobs").asU64(), 0u);
    EXPECT_EQ(journal.at("records").asU64(), 0u);
    EXPECT_EQ(journal.at("bytes").asU64(), 0u);
    EXPECT_EQ(journal.at("compactions_total").asU64(), live);
}

} // namespace
} // namespace gga
