/**
 * @file
 * Tests for the write-ahead job journal and crash recovery: record
 * round trips, terminal-job compaction, torn-tail tolerance, corrupt
 * part files, and full Service restarts — a recovered remote job never
 * re-executes its completed shards and still merges byte-identically,
 * and a recovered local job simply re-runs to the same bytes.
 */

#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "eval/run.hpp"
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
        j.state("job-2", JobState::Running, "");
        j.part("job-2", 0, part0Json);
        j.admit("job-10", "bob", false, 0, m);
        // A state record for an unknown (already compacted) job is a
        // quiet no-op, not a resurrection.
        j.state("job-99", JobState::Running, "");
    }

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
    EXPECT_EQ(first.state, JobState::Running);
    EXPECT_EQ(first.manifest.toJson().dump(), m.toJson().dump());
    EXPECT_EQ(first.doneShards, std::set<std::size_t>{0});
    EXPECT_EQ(ResultSet::fromRows(first.rows).toJson().dump(), part0Json);
    EXPECT_EQ(j.recovered()[1].id, "job-10");
    EXPECT_FALSE(j.recovered()[1].remote);
}

TEST(Journal, FinishCompactsRecordsAndDeletesPartFiles)
{
    const std::string dir = freshDir("compact");
    const Manifest m = tinyManifest();
    Journal j(dir);
    j.admit("job-1", "t", true, 2, m);
    j.part("job-1", 0, "{\"results\":[]}");
    j.state("job-1", JobState::Done, "");
    EXPECT_EQ(j.statsJson().at("live_jobs").asU64(), 1u);

    j.finish("job-1");
    const Json stats = j.statsJson();
    EXPECT_EQ(stats.at("live_jobs").asU64(), 0u);
    EXPECT_EQ(stats.at("records").asU64(), 0u);
    EXPECT_EQ(stats.at("bytes").asU64(), 0u);
    EXPECT_EQ(stats.at("compactions_total").asU64(), 1u);
    EXPECT_TRUE(std::filesystem::is_empty(dir + "/parts"));
    // finish() on an unknown job is idempotent.
    j.finish("job-1");

    Journal replay(dir);
    EXPECT_TRUE(replay.recovered().empty());
}

TEST(Journal, TerminalJobsFoundAtReplayAreCompactedAway)
{
    const std::string dir = freshDir("deferred");
    const Manifest m = tinyManifest();
    {
        // Done recorded but the process "died" before finish() compacted.
        Journal j(dir);
        j.admit("job-1", "t", true, 2, m);
        j.part("job-1", 0, "{\"results\":[]}");
        j.state("job-1", JobState::Done, "");
        j.admit("job-2", "t", false, 0, m);
    }
    Journal j(dir);
    ASSERT_EQ(j.recovered().size(), 1u);
    EXPECT_EQ(j.recovered()[0].id, "job-2");
    // The terminal job's records and part files were swept at replay.
    EXPECT_TRUE(std::filesystem::is_empty(dir + "/parts"));
}

TEST(Journal, TornTailIsDroppedAndEarlierRecordsSurvive)
{
    const std::string dir = freshDir("torntail");
    const Manifest m = tinyManifest();
    {
        Journal j(dir);
        j.admit("job-1", "t", false, 0, m);
        j.state("job-1", JobState::Running, "");
    }
    {
        // A crash mid-append leaves a half-written last line.
        std::ofstream f(dir + "/journal.jsonl", std::ios::app);
        f << "{\"t\":\"admit\",\"job\":\"job-2\",\"tena";
    }
    Journal j(dir);
    EXPECT_TRUE(j.tailWasDamaged());
    EXPECT_TRUE(j.statsJson().at("tail_damaged").asBool());
    ASSERT_EQ(j.recovered().size(), 1u);
    EXPECT_EQ(j.recovered()[0].id, "job-1");
    EXPECT_EQ(j.recovered()[0].state, JobState::Running);

    // The compacted rewrite healed the log: a second replay is clean.
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
        std::ofstream f(dir + "/journal.jsonl", std::ios::app);
        f << "\xff\xfe not json at all\n{\"t\":\"state\"}\n";
    }
    Journal j(dir);
    EXPECT_TRUE(j.tailWasDamaged());
    ASSERT_EQ(j.recovered().size(), 1u);
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

    // Done -> compacted: a third boot has nothing to recover.
    const Json jstats = Json::parse(
        svc.handle(request("GET", "/stats")).body);
    EXPECT_EQ(jstats.at("journal").at("live_jobs").asU64(), 0u);
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
        // both parts landed but before the done record. (The public API
        // compacts done jobs instantly, so fabricate the crash state.)
        Journal j(dir);
        j.admit(id, "default", true, 2, manifest);
        j.state(id, JobState::Running, "");
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
    // Finishing at restore was journaled and compacted like any finish.
    EXPECT_EQ(stats.at("journal").at("live_jobs").asU64(), 0u);
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
        j.state("job-5", JobState::Running, "");
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

} // namespace
} // namespace gga
