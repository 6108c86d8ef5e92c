/**
 * @file
 * Tests for the sharded evaluation pipeline: JSON round trips of
 * work-unit manifests and result sets, shard partitioning and
 * shard-count invariance of the merged results, merge rejection of
 * duplicate/missing units, and the GraphStore capacity policy that
 * backs multi-worker hosts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "api/graph_store.hpp"
#include "eval/run.hpp"
#include "graph/mtx_io.hpp"
#include "graph/snapshot.hpp"
#include "harness/figures.hpp"
#include "harness/sweep.hpp"
#include "harness/workloads.hpp"
#include "support/json.hpp"

namespace gga {
namespace {

double
testScale()
{
    return evaluationScale(); // GGA_SCALE, 0.1 under ctest
}

// --- Json ----------------------------------------------------------------

TEST(Json, ScalarRoundTrip)
{
    const Json j = Json::parse(
        "{\"u\": 18446744073709551615, \"i\": -42, \"d\": 0.1, "
        "\"s\": \"a\\n\\\"b\\\"\", \"b\": true, \"n\": null, "
        "\"a\": [1, 2, 3]}");
    EXPECT_EQ(j.at("u").asU64(), 18446744073709551615ull);
    EXPECT_EQ(j.at("i").asI64(), -42);
    EXPECT_EQ(j.at("d").asDouble(), 0.1);
    EXPECT_EQ(j.at("s").asString(), "a\n\"b\"");
    EXPECT_TRUE(j.at("b").asBool());
    EXPECT_TRUE(j.at("n").isNull());
    EXPECT_EQ(j.at("a").asArray().size(), 3u);
    // dump -> parse is the identity (exact integers, exact doubles).
    EXPECT_EQ(Json::parse(j.dump()), j);
    EXPECT_EQ(Json::parse(j.dump(2)), j);
}

TEST(Json, MalformedInputThrows)
{
    EXPECT_THROW(Json::parse(""), JsonError);
    EXPECT_THROW(Json::parse("{"), JsonError);
    EXPECT_THROW(Json::parse("[1,]"), JsonError);
    EXPECT_THROW(Json::parse("{\"a\": 1} trailing"), JsonError);
    EXPECT_THROW(Json::parse("nul"), JsonError);
    EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
    // Duplicate keys would let at()/find() silently pick one of two
    // conflicting values in a hand-edited document.
    EXPECT_THROW(Json::parse("{\"a\": 1, \"a\": 2}"), JsonError);
}

TEST(Json, AccessorMismatchThrows)
{
    const Json j = Json::parse("{\"a\": -1}");
    EXPECT_THROW(j.at("a").asU64(), JsonError);
    EXPECT_THROW(j.at("a").asString(), JsonError);
    EXPECT_THROW(j.at("missing"), JsonError);
    EXPECT_EQ(j.find("missing"), nullptr);
}

// --- WorkUnit ------------------------------------------------------------

WorkUnit
presetUnit(AppId app, GraphPreset g, const char* cfg, double scale)
{
    WorkUnit u;
    u.app = app;
    u.preset = g;
    u.scale = scale;
    u.config = parseConfig(cfg);
    return u;
}

TEST(WorkUnit, JsonRoundTrip)
{
    WorkUnit u = presetUnit(AppId::Mis, GraphPreset::Raj, "SGR", 0.25);
    u.seed = 7;
    u.collectOutputs = true;
    SimParams p;
    p.l1SizeKiB = 64;
    u.params = p;
    const WorkUnit back = WorkUnit::fromJson(u.toJson());
    EXPECT_EQ(back, u);
    EXPECT_EQ(back.key(), u.key());

    WorkUnit file;
    file.app = AppId::Pr;
    file.path = "inputs/raj.mtx";
    file.config = parseConfig("TG0");
    EXPECT_EQ(WorkUnit::fromJson(file.toJson()), file);
}

TEST(WorkUnit, KeyEncodesIdentity)
{
    const WorkUnit base =
        presetUnit(AppId::Pr, GraphPreset::Raj, "SGR", 0.1);
    EXPECT_EQ(base.key(), "PR-RAJ@SGR x100000");

    WorkUnit seeded = base;
    seeded.seed = 3;
    WorkUnit tuned = base;
    SimParams p;
    p.relaxedAtomicWindow = 8;
    tuned.params = p;
    WorkUnit collecting = base;
    collecting.collectOutputs = true;
    const std::set<std::string> keys{base.key(), seeded.key(), tuned.key(),
                                     collecting.key()};
    EXPECT_EQ(keys.size(), 4u) << "every identity field must alter the key";
}

TEST(WorkUnit, FromJsonRejectsGarbage)
{
    EXPECT_THROW(
        WorkUnit::fromJson(Json::parse(
            "{\"app\": \"NOPE\", \"input\": {\"preset\": \"RAJ\"}, "
            "\"config\": \"TG0\"}")),
        EvalError);
    EXPECT_THROW(
        WorkUnit::fromJson(Json::parse(
            "{\"app\": \"PR\", \"input\": {}, \"config\": \"TG0\"}")),
        EvalError);
    EXPECT_THROW(
        WorkUnit::fromJson(Json::parse(
            "{\"app\": \"PR\", \"input\": {\"preset\": \"RAJ\", "
            "\"scale\": 2.0}, \"config\": \"TG0\"}")),
        EvalError);
    EXPECT_THROW(
        WorkUnit::fromJson(Json::parse(
            "{\"app\": \"PR\", \"input\": {\"preset\": \"RAJ\"}, "
            "\"config\": \"XYZ\"}")),
        EvalError);
    EXPECT_THROW(
        WorkUnit::fromJson(Json::parse(
            "{\"app\": \"PR\", \"input\": {\"preset\": \"RAJ\"}, "
            "\"config\": \"TG0\", \"params\": {\"mistyped\": 1}}")),
        EvalError);
    // Typos outside "params" must be as loud as typos inside it.
    EXPECT_THROW(
        WorkUnit::fromJson(Json::parse(
            "{\"app\": \"PR\", \"input\": {\"preset\": \"RAJ\"}, "
            "\"config\": \"TG0\", \"colect_outputs\": true}")),
        EvalError);
    EXPECT_THROW(
        WorkUnit::fromJson(Json::parse(
            "{\"app\": \"PR\", \"input\": {\"path\": \"g.mtx\", "
            "\"scale\": 0.1}, \"config\": \"TG0\"}")),
        EvalError);
    EXPECT_THROW(
        WorkUnit::fromJson(Json::parse(
            "{\"app\": \"PR\", \"input\": {\"preset\": \"RAJ\", "
            "\"path\": \"g.mtx\"}, \"config\": \"TG0\"}")),
        EvalError);
}

// --- Manifest ------------------------------------------------------------

Manifest
smallManifest()
{
    Manifest m;
    for (const char* cfg : {"TG0", "SG1", "SGR", "SD1", "SDR"})
        m.add(presetUnit(AppId::Mis, GraphPreset::Dct, cfg, 0.1));
    for (const char* cfg : {"DG1", "DGR", "DD1", "DDR"})
        m.add(presetUnit(AppId::Cc, GraphPreset::Dct, cfg, 0.1));
    return m;
}

TEST(Manifest, RejectsDuplicates)
{
    Manifest m = smallManifest();
    EXPECT_THROW(
        m.add(presetUnit(AppId::Mis, GraphPreset::Dct, "TG0", 0.1)),
        EvalError);
    EXPECT_FALSE(
        m.addUnique(presetUnit(AppId::Mis, GraphPreset::Dct, "TG0", 0.1)));
    EXPECT_EQ(m.size(), 9u);
}

TEST(Manifest, JsonAndFileRoundTrip)
{
    Manifest m = smallManifest();
    m.meta["figure"] = "test";
    m.meta["scale_units"] = "100000";
    EXPECT_EQ(Manifest::fromJson(m.toJson()), m);

    const std::string path =
        testing::TempDir() + "gga_manifest_roundtrip.json";
    m.save(path);
    EXPECT_EQ(Manifest::load(path), m);
    std::remove(path.c_str());
}

TEST(Manifest, ShardPartitionsExactly)
{
    const Manifest m = smallManifest();
    for (const ShardPolicy policy :
         {ShardPolicy::RoundRobin, ShardPolicy::ByCost}) {
        for (std::size_t count : {1u, 2u, 3u, 4u}) {
            std::set<std::string> seen;
            std::size_t total = 0;
            for (std::size_t i = 0; i < count; ++i) {
                const Manifest shard = m.shard(i, count, policy);
                total += shard.size();
                for (const WorkUnit& u : shard.units())
                    EXPECT_TRUE(seen.insert(u.key()).second)
                        << "unit in two shards: " << u.key();
                // Deterministic: the same call yields the same shard.
                EXPECT_EQ(m.shard(i, count, policy), shard);
            }
            EXPECT_EQ(total, m.size());
            EXPECT_EQ(seen.size(), m.size());
        }
    }
    EXPECT_THROW(m.shard(2, 2), EvalError);
    EXPECT_THROW(m.shard(0, 0), EvalError);
}

TEST(Manifest, SweepParamsAppendsOnePointPerUnit)
{
    Manifest m;
    std::vector<SimParams> points;
    for (std::uint32_t l1 : {8u, 32u, 128u}) {
        SimParams p;
        p.l1SizeKiB = l1;
        points.push_back(p);
    }
    const auto keys = m.sweepParams(AppId::Mis, GraphPreset::Ols,
                                    parseConfig("TG0"), points, 0.1);
    ASSERT_EQ(keys.size(), 3u);
    ASSERT_EQ(m.size(), 3u);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(m.units()[i].key(), keys[i]);
        ASSERT_TRUE(m.units()[i].params.has_value());
        EXPECT_EQ(m.units()[i].params->l1SizeKiB, points[i].l1SizeKiB);
    }
    EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(), 3u);
}

// --- ResultSet -----------------------------------------------------------

UnitResult
fakeResult(const std::string& key, Cycles cycles)
{
    UnitResult r;
    r.key = key;
    r.run.cycles = cycles;
    r.run.breakdown.busy = 0.25 + static_cast<double>(cycles);
    r.run.mem.l1LoadHits = cycles * 3;
    r.run.events = cycles * 7;
    r.run.kernels = 2;
    return r;
}

TEST(ResultSet, SortedInsertAndLookup)
{
    ResultSet rs;
    rs.add(fakeResult("b", 2));
    rs.add(fakeResult("a", 1));
    rs.add(fakeResult("c", 3));
    ASSERT_EQ(rs.size(), 3u);
    EXPECT_EQ(rs.results()[0].key, "a");
    EXPECT_EQ(rs.results()[2].key, "c");
    EXPECT_EQ(rs.at("b").run.cycles, 2u);
    EXPECT_EQ(rs.find("missing"), nullptr);
    EXPECT_THROW(rs.at("missing"), EvalError);
    EXPECT_THROW(rs.add(fakeResult("a", 9)), EvalError);
}

TEST(ResultSet, JsonRoundTripIsExact)
{
    ResultSet rs;
    UnitResult r = fakeResult("unit", 123456789012345ull);
    OutputSummary s;
    s.kind = "PR";
    s.elements = 99;
    s.hash = 0xdeadbeefcafef00dull;
    r.output = s;
    rs.add(r);
    rs.add(fakeResult("other", 7));
    EXPECT_EQ(ResultSet::fromJson(rs.toJson()), rs);

    const std::string path = testing::TempDir() + "gga_results.json";
    rs.save(path);
    EXPECT_EQ(ResultSet::load(path), rs);
    std::remove(path.c_str());
}

TEST(ResultSet, FromJsonRejectsUnknownMembers)
{
    ResultSet rs;
    rs.add(fakeResult("u1", 1));
    Json j = rs.toJson();
    j.set("note", "hand-edited");
    EXPECT_THROW(ResultSet::fromJson(j), EvalError);

    Json unit = rs.toJson().at("results").asArray()[0];
    unit.set("cycels", 2); // typo'd member alongside the real one
    EXPECT_THROW(UnitResult::fromJson(unit), EvalError);

    Manifest m = smallManifest();
    Json mj = m.toJson();
    mj.set("scale", 0.5); // misplaced top-level member
    EXPECT_THROW(Manifest::fromJson(mj), EvalError);
}

TEST(ResultSet, MergeRejectsDuplicates)
{
    ResultSet a;
    a.add(fakeResult("u1", 1));
    a.add(fakeResult("u2", 2));
    ResultSet b;
    b.add(fakeResult("u2", 2));
    try {
        ResultSet::merge({a, b});
        FAIL() << "merge accepted a duplicated unit";
    } catch (const EvalError& err) {
        EXPECT_NE(std::string(err.what()).find("duplicate"),
                  std::string::npos);
        EXPECT_NE(std::string(err.what()).find("u2"), std::string::npos);
    }
}

TEST(ResultSet, VerifyCompleteNamesMissingAndUnexpected)
{
    Manifest m;
    m.add(presetUnit(AppId::Pr, GraphPreset::Dct, "TG0", 0.1));
    m.add(presetUnit(AppId::Pr, GraphPreset::Dct, "SGR", 0.1));

    ResultSet rs;
    rs.add(fakeResult(m.units()[0].key(), 1));
    rs.add(fakeResult("PR-DCT@XXX", 2));
    try {
        rs.verifyComplete(m);
        FAIL() << "verifyComplete accepted an incomplete merge";
    } catch (const EvalError& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("missing"), std::string::npos);
        EXPECT_NE(what.find(m.units()[1].key()), std::string::npos);
        EXPECT_NE(what.find("unexpected"), std::string::npos);
        EXPECT_NE(what.find("PR-DCT@XXX"), std::string::npos);
    }

    ResultSet ok;
    ok.add(fakeResult(m.units()[0].key(), 1));
    ok.add(fakeResult(m.units()[1].key(), 2));
    EXPECT_NO_THROW(ok.verifyComplete(m));
}

// --- shard-count invariance (real simulations) ---------------------------

TEST(ShardInvariance, MergedShardsMatchInProcessRun)
{
    // A small but real slice of the fig5 matrix: every unit is an actual
    // simulation at the ctest GGA_SCALE. One unit collects outputs so
    // the summary hashes cross the JSON boundary too.
    const double scale = testScale();
    std::vector<SweepSpec> specs;
    specs.push_back(buildSweepSpec({AppId::Mis, GraphPreset::Dct},
                                   figureConfigs(false), SimParams{},
                                   scale));
    specs.push_back(buildSweepSpec({AppId::Cc, GraphPreset::Dct},
                                   figureConfigs(true), SimParams{},
                                   scale));
    Manifest manifest = manifestForSpecs(specs);
    WorkUnit with_outputs =
        presetUnit(AppId::Pr, GraphPreset::Dct, "SGR", scale);
    with_outputs.collectOutputs = true;
    manifest.add(with_outputs);

    Session session;
    const ResultSet in_process = runManifest(session, manifest);
    in_process.verifyComplete(manifest);

    for (std::size_t count : {2u, 4u}) {
        std::vector<ResultSet> parts;
        for (std::size_t i = 0; i < count; ++i) {
            // Each shard in its own Session, as separate worker
            // processes would run it — and through a JSON round trip,
            // as worker part files would ship it.
            Session worker;
            const ResultSet part =
                runManifest(worker, manifest.shard(i, count));
            parts.push_back(ResultSet::fromJson(part.toJson()));
        }
        const ResultSet merged = ResultSet::merge(parts);
        merged.verifyComplete(manifest);
        EXPECT_EQ(merged, in_process)
            << count << "-shard merge diverged from the in-process run";
    }

    // The sweep view over the merged results picks a true BEST.
    const SweepResult sweep = sweepFromResults(specs[0], in_process);
    EXPECT_EQ(sweep.results.size(), specs[0].configs.size());
    for (const ConfigResult& r : sweep.results)
        EXPECT_GE(r.run.cycles, sweep.bestCycles);
    EXPECT_NE(sweep.find(sweep.predicted), nullptr);

    // Outputs were summarized for exactly the collecting unit.
    const UnitResult& collected = in_process.at(with_outputs.key());
    ASSERT_TRUE(collected.output.has_value());
    EXPECT_EQ(collected.output->kind, "PR");
    EXPECT_GT(collected.output->elements, 0u);
}

TEST(ShardInvariance, DuplicateConfigsInSweepListAreTolerated)
{
    // The manifest path runs a duplicated configuration's shared unit
    // once and fans it back out to one result slot per list entry.
    Session session;
    const std::vector<SystemConfig> configs = {parseConfig("TG0"),
                                               parseConfig("TG0")};
    const SweepResult sweep =
        submitSweep(session, {AppId::Mis, GraphPreset::Dct}, configs,
                    SimParams{}, testScale())
            .collect();
    ASSERT_GE(sweep.results.size(), 2u);
    EXPECT_EQ(sweep.results[0].config, sweep.results[1].config);
    EXPECT_EQ(sweep.results[0].run, sweep.results[1].run);
}

// --- MatrixMarket inputs through the GraphStore/Session ------------------

TEST(GraphStoreFile, FileInputsAreCachedAndRunnable)
{
    const std::string path = testing::TempDir() + "gga_store_input.mtx";
    {
        std::ofstream out(path);
        writeMatrixMarket(out, buildPresetScaled(GraphPreset::Dct, 0.05));
    }

    GraphStore& store = GraphStore::instance();
    const auto first = store.getFile(path);
    ASSERT_NE(first, nullptr);
    EXPECT_GT(first->numEdges(), 0u);
    EXPECT_EQ(store.getFile(path).get(), first.get()) << "not cached";

    // Runs through RunPlan::graphFile and matches the same graph passed
    // as a custom handle.
    Session session;
    const RunOutcome via_file = session.run(RunPlan{}
                                                .app(AppId::Pr)
                                                .graphFile(path)
                                                .config("SGR"));
    const RunOutcome via_handle =
        session.run(RunPlan{}.app(AppId::Pr).graph(first, "dct").config(
            "SGR"));
    EXPECT_EQ(via_file.result, via_handle.result);
    EXPECT_EQ(via_file.graphName, path);

    // And as a manifest work unit.
    WorkUnit u;
    u.app = AppId::Pr;
    u.path = path;
    u.config = parseConfig("SGR");
    Manifest m;
    m.add(u);
    const ResultSet rs = runManifest(session, m);
    EXPECT_EQ(rs.at(u.key()).run, via_file.result);

    EXPECT_TRUE(store.evictFile(path));
    EXPECT_FALSE(store.evictFile(path));
    std::remove(path.c_str());

    // Scale is a preset-only knob: a file plan with a scale is invalid.
    EXPECT_NE(session.validate(RunPlan{}
                                   .app(AppId::Pr)
                                   .graphFile(path)
                                   .scale(0.5)
                                   .config("SGR")),
              std::nullopt);
}

// --- GraphStore capacity policy ------------------------------------------

TEST(GraphStoreBudget, LruEvictionKeepsTotalUnderBudget)
{
    GraphStore& store = GraphStore::instance();
    store.clear();
    store.setBudgetBytes(0);

    // Three small graphs, then a budget that fits roughly one of them.
    const auto a = store.get(GraphPreset::Dct, 0.011);
    const auto b = store.get(GraphPreset::Dct, 0.012);
    const auto c = store.get(GraphPreset::Dct, 0.013);
    EXPECT_EQ(store.size(), 3u);
    EXPECT_EQ(store.totalBytes(),
              a->memoryBytes() + b->memoryBytes() + c->memoryBytes());
    EXPECT_EQ(store.stats().size(), 3u);
    // stats() is most-recently-used first.
    EXPECT_EQ(store.stats().front().name, "DCT");

    // Touch `a` so `b` is the LRU victim, then squeeze.
    (void)store.get(GraphPreset::Dct, 0.011);
    store.setBudgetBytes(a->memoryBytes() + c->memoryBytes());
    EXPECT_EQ(store.budgetBytes(), a->memoryBytes() + c->memoryBytes());
    EXPECT_EQ(store.size(), 2u) << "LRU entry should have been evicted";
    EXPECT_LE(store.totalBytes(), store.budgetBytes());
    // The evicted handle stays usable; a re-get rebuilds identically.
    EXPECT_GT(b->numVertices(), 0u);
    const auto b2 = store.get(GraphPreset::Dct, 0.012);
    EXPECT_EQ(b2->numVertices(), b->numVertices());
    EXPECT_EQ(b2->numEdges(), b->numEdges());

    // A budget smaller than any one graph still keeps the newest entry
    // (the store never evicts below one resident graph).
    store.setBudgetBytes(1);
    EXPECT_EQ(store.size(), 1u);

    store.setBudgetBytes(0);
    store.clear();
}

TEST(GraphStoreBudget, FullScalePresetsAreStoreOwned)
{
    // Full-scale entries used to alias the process-lifetime presetGraph
    // memo — 0 accounted bytes, unevictable, so --graph-budget-mb could
    // never bound a paper-sized worker. They are owned now: accounted,
    // reported, and evictable like every other entry.
    GraphStore& store = GraphStore::instance();
    store.clear();
    store.setBudgetBytes(0);

    const auto full = store.get(GraphPreset::Dct); // scale 1.0
    EXPECT_EQ(full->numEdges(), paperStats(GraphPreset::Dct).edges);
    EXPECT_EQ(store.totalBytes(), full->memoryBytes());
    ASSERT_EQ(store.stats().size(), 1u);
    EXPECT_EQ(store.stats().front().name, "DCT");
    EXPECT_DOUBLE_EQ(store.stats().front().scale, 1.0);
    EXPECT_EQ(store.stats().front().bytes, full->memoryBytes());

    EXPECT_TRUE(store.evict(GraphPreset::Dct));
    EXPECT_EQ(store.totalBytes(), 0u);
    EXPECT_GT(full->numEdges(), 0u) << "outstanding handles stay valid";
    store.clear();
}

TEST(GraphStoreBudget, EvictionOrdersAcrossEntryKinds)
{
    // Preset full-scale, scaled-preset, and MatrixMarket file entries
    // compete under one byte budget in pure LRU order.
    GraphStore& store = GraphStore::instance();
    store.clear();
    store.setBudgetBytes(0);

    const std::string path = testing::TempDir() + "gga_evict_order.mtx";
    {
        std::ofstream out(path);
        writeMatrixMarket(out, buildPresetScaled(GraphPreset::Raj, 0.05));
    }
    const auto full = store.get(GraphPreset::Dct); // oldest
    const auto scaled = store.get(GraphPreset::Dct, 0.05);
    const auto file = store.getFile(path); // newest
    ASSERT_EQ(store.size(), 3u);
    EXPECT_EQ(store.totalBytes(), full->memoryBytes() +
                                      scaled->memoryBytes() +
                                      file->memoryBytes());
    // stats() is most-recently-used first; all three kinds report bytes.
    const auto rows = store.stats();
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].name, path);
    EXPECT_EQ(rows[1].name, "DCT");
    EXPECT_EQ(rows[2].name, "DCT");
    for (const auto& r : rows)
        EXPECT_GT(r.bytes, 0u) << r.name;

    // Touch the full-scale entry: the scaled preset becomes LRU and is
    // the first casualty of a squeeze; the file entry goes next.
    (void)store.get(GraphPreset::Dct);
    store.setBudgetBytes(full->memoryBytes() + file->memoryBytes());
    ASSERT_EQ(store.size(), 2u);
    EXPECT_EQ(store.stats()[0].name, "DCT");
    EXPECT_EQ(store.stats()[1].name, path);
    store.setBudgetBytes(full->memoryBytes());
    ASSERT_EQ(store.size(), 1u);
    EXPECT_EQ(store.stats()[0].name, "DCT");
    EXPECT_DOUBLE_EQ(store.stats()[0].scale, 1.0);

    // Pinned-while-in-use: the evicted handles are intact, and re-gets
    // rebuild bit-identical graphs.
    EXPECT_EQ(*store.get(GraphPreset::Dct, 0.05), *scaled);
    EXPECT_EQ(*store.getFile(path), *file);

    store.setBudgetBytes(0);
    store.clear();
    std::remove(path.c_str());
}

// --- GraphStore snapshot cache -------------------------------------------

TEST(GraphStoreSnapshot, CacheDirServesRejectsAndHeals)
{
    GraphStore& store = GraphStore::instance();
    store.clear();
    const std::string dir = testing::TempDir() + "gga_snap_cache";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    store.setCacheDir(dir);

    // First build populates the cache with one .csrbin per entry.
    const auto built = store.get(GraphPreset::Raj, 0.1);
    std::vector<std::filesystem::path> files;
    for (const auto& e : std::filesystem::directory_iterator(dir))
        files.push_back(e.path());
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(files[0].extension(), ".csrbin");

    // A fresh get() after eviction is served from the snapshot —
    // tampering with the file's payload would be caught, so equality
    // here means the bytes really round-tripped.
    store.evict(GraphPreset::Raj, 0.1);
    EXPECT_EQ(*store.get(GraphPreset::Raj, 0.1), *built);

    // Corrupt the snapshot: the store must reject it, resynthesize the
    // identical graph, and heal the cache file in passing.
    store.evict(GraphPreset::Raj, 0.1);
    std::filesystem::resize_file(files[0], 100);
    EXPECT_EQ(*store.get(GraphPreset::Raj, 0.1), *built);
    store.evict(GraphPreset::Raj, 0.1);
    EXPECT_EQ(loadCsrSnapshot(files[0].string()), *built)
        << "the damaged file should have been overwritten with a good copy";

    // The cache is scoped to the directory setting; clearing it returns
    // the store to pure in-memory behavior for the remaining tests.
    store.setCacheDir("");
    store.clear();
    std::filesystem::remove_all(dir);
}

TEST(GraphStoreSnapshot, WorkerBudgetBoundsAFullScaleManifest)
{
    // The acceptance path behind `gga_worker --graph-budget-mb` on a
    // paper-scale manifest: full-scale store-owned presets competing
    // under a budget smaller than their sum, while the snapshot cache
    // absorbs the rebuild cost of re-faulted entries.
    GraphStore& store = GraphStore::instance();
    store.clear();
    store.setBudgetBytes(0);
    const std::string dir = testing::TempDir() + "gga_budget_cache";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    Manifest m;
    m.add(presetUnit(AppId::Pr, GraphPreset::Dct, "TG0", 1.0));
    m.add(presetUnit(AppId::Pr, GraphPreset::Raj, "TG0", 1.0));
    m.add(presetUnit(AppId::Pr, GraphPreset::Wng, "TG0", 1.0));
    ASSERT_EQ(m.graphInputs().size(), 3u);

    // Budget below the three graphs' combined footprint (DCT alone is
    // ~1.6 MB) — the worker must shed inputs as it goes.
    const std::size_t budget = 3u << 20;
    SessionOptions opts;
    opts.graphBudgetBytes = budget;
    opts.graphCacheDir = dir;
    Session session(opts);
    const ResultSet results = runManifest(session, m);

    EXPECT_EQ(results.size(), 3u);
    EXPECT_EQ(store.budgetBytes(), budget);
    EXPECT_LE(store.totalBytes(), budget)
        << "resident graph bytes must stay bounded after a full-scale "
           "manifest";
    EXPECT_LT(store.size(), 3u)
        << "a budget below the combined footprint cannot keep every "
           "full-scale input resident";

    store.setBudgetBytes(0);
    store.setCacheDir("");
    store.clear();
    std::filesystem::remove_all(dir);
}

// --- unit params ----------------------------------------------------------

TEST(RegistryParams, UnitWithoutParamsRunsTheRegistryPreset)
{
    const WorkUnit u = presetUnit(AppId::Pr, GraphPreset::Dct, "SGR", 0.1);
    const RunPlan plan = planForUnit(u);
    ASSERT_TRUE(plan.plannedParams().has_value());
    EXPECT_EQ(*plan.plannedParams(), SimParams{});
    EXPECT_EQ(plan.outputsRequested(), std::optional<bool>(false));
}

// --- figure sets ----------------------------------------------------------

TEST(FigureSet, ManifestMetaRebuildsTheSet)
{
    // Tiny scale: figureSet builds graphs to compute predictions.
    const FigureSet set = figureSet("fig5", 0.01);
    EXPECT_EQ(set.specs.size(), 36u);
    EXPECT_GT(set.manifest.size(), 0u);

    const Manifest round_tripped =
        Manifest::fromJson(set.manifest.toJson());
    const FigureSet rebuilt = figureSetFromManifest(round_tripped);
    EXPECT_EQ(rebuilt.figure, "fig5");
    EXPECT_EQ(rebuilt.manifest.units(), set.manifest.units());

    Manifest edited = round_tripped;
    edited.meta["scale_units"] = "20000"; // stale meta != units
    EXPECT_THROW(figureSetFromManifest(edited), EvalError);

    Manifest no_meta = round_tripped;
    no_meta.meta.clear();
    EXPECT_THROW(figureSetFromManifest(no_meta), EvalError);

    EXPECT_THROW(figureSet("fig9", 0.01), EvalError);
}

TEST(FigureSet, OffGridScaleQuantizesAndRebuilds)
{
    // A scale that is not on the 1e-6 key grid must be snapped at build
    // time, or the meta (scale_units) could not rebuild the exact units.
    const FigureSet set = figureSet("fig5", 0.0123456789);
    EXPECT_EQ(set.scale, 0.012346);
    for (const SweepSpec& s : set.specs)
        for (const WorkUnit& u : s.units)
            EXPECT_EQ(u.scale, set.scale);
    const FigureSet rebuilt = figureSetFromManifest(
        Manifest::fromJson(set.manifest.toJson()));
    EXPECT_EQ(rebuilt.manifest.units(), set.manifest.units());
}

TEST(FigureSet, NonDefaultParamsSurviveTheMetaRoundTrip)
{
    SimParams params;
    params.l1SizeKiB = 64;
    const FigureSet set = figureSet("fig5", 0.01, false, params);
    ASSERT_TRUE(set.manifest.meta.count("params"));
    const FigureSet rebuilt = figureSetFromManifest(
        Manifest::fromJson(set.manifest.toJson()));
    EXPECT_EQ(rebuilt.manifest.units(), set.manifest.units());
}

TEST(FigureSet, PartialDedupesOverlappingSweeps)
{
    const FigureSet set = figureSet("partial", 0.01);
    EXPECT_EQ(set.specs.size(), 36u);
    EXPECT_EQ(set.restricted.size(), 36u);
    std::size_t spec_units = 0;
    for (const SweepSpec& s : set.specs)
        spec_units += s.units.size();
    for (const SweepSpec& s : set.restricted)
        spec_units += s.units.size();
    EXPECT_LT(set.manifest.size(), spec_units)
        << "the restricted sweeps must share units with the full ones";
    // Every spec unit is resolvable in the manifest.
    for (const SweepSpec& s : set.restricted)
        for (const WorkUnit& u : s.units)
            EXPECT_TRUE(set.manifest.contains(u.key()));
}

} // namespace
} // namespace gga
