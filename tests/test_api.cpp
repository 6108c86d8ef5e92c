/**
 * @file
 * Tests for the Plan/Session API layer: the Table III app lookups, plan
 * validation (no aborts on invalid input), typed output collection, the
 * thread-safe GraphStore, and serial-vs-parallel sweep equivalence.
 */

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/graph_store.hpp"
#include "api/session.hpp"
#include "eval/run.hpp"
#include "graph/generator.hpp"
#include "harness/sweep.hpp"
#include "harness/workloads.hpp"

namespace gga {
namespace {

const CsrGraph&
smallGraph()
{
    static const CsrGraph g = [] {
        GenSpec spec;
        spec.name = "api-small";
        spec.numVertices = 600;
        spec.numDirectedEdges = 3000;
        spec.dist = DegreeDist::PowerLaw;
        spec.p1 = 2.3;
        spec.p2 = 1.5;
        spec.maxDegree = 48;
        spec.fracIntraBlock = 0.3;
        spec.seed = 12345;
        return generateGraph(spec);
    }();
    return g;
}

// --- the app table ---------------------------------------------------------

TEST(AppTable, NamesRoundTrip)
{
    for (AppId app : kAllApps)
        EXPECT_EQ(appFromName(appName(app)), app) << appName(app);
    EXPECT_EQ(appFromName("SSSP"), AppId::Sssp);
    EXPECT_EQ(appFromName("nope"), std::nullopt);
    EXPECT_EQ(appFromName("pr"), std::nullopt); // case-sensitive
}

TEST(PresetTable, NamesRoundTrip)
{
    for (GraphPreset p : kAllGraphPresets)
        EXPECT_EQ(presetFromName(presetName(p)), p) << presetName(p);
    EXPECT_EQ(presetFromName("RAJ"), GraphPreset::Raj);
    EXPECT_EQ(presetFromName("nope"), std::nullopt);
    EXPECT_EQ(presetFromName("amz"), std::nullopt); // case-sensitive
}

TEST(AppTable, AcceptedConfigsFollowTraversal)
{
    std::vector<SystemConfig> all = allConfigs(false);
    for (const SystemConfig& c : allConfigs(true))
        all.push_back(c);
    for (AppId app : kAllApps) {
        const bool dynamic =
            algoProperties(app).traversal == TraversalKind::Dynamic;
        std::size_t accepted = 0;
        for (const SystemConfig& c : all)
            accepted += acceptsConfig(app, c);
        EXPECT_EQ(accepted, dynamic ? 6u : 12u) << appName(app);
        EXPECT_EQ(acceptsConfig(app, parseConfig("SG1")), !dynamic);
        EXPECT_EQ(acceptsConfig(app, parseConfig("DD1")), dynamic);
    }
}

// --- config parsing -------------------------------------------------------

TEST(Config, TryParseRoundTripsAllValid)
{
    for (bool dyn : {false, true}) {
        for (const SystemConfig& cfg : allConfigs(dyn)) {
            const std::optional<SystemConfig> parsed =
                tryParseConfig(cfg.name());
            ASSERT_TRUE(parsed.has_value()) << cfg.name();
            EXPECT_EQ(*parsed, cfg);
        }
    }
}

TEST(Config, TryParseRejectsMalformedWithoutAborting)
{
    EXPECT_FALSE(tryParseConfig(""));
    EXPECT_FALSE(tryParseConfig("SG"));
    EXPECT_FALSE(tryParseConfig("SGRX"));
    EXPECT_FALSE(tryParseConfig("XGR"));
    EXPECT_FALSE(tryParseConfig("SXR"));
    EXPECT_FALSE(tryParseConfig("SGX"));
    EXPECT_EQ(parseConfig("SGR"), *tryParseConfig("SGR"));
}

// --- plan validation ------------------------------------------------------

TEST(RunPlan, ValidationRejectsIncompletePlans)
{
    Session session;
    EXPECT_TRUE(session.validate(RunPlan{}).has_value());
    EXPECT_TRUE(session.validate(RunPlan{}.app(AppId::Pr)).has_value());
    EXPECT_TRUE(session
                    .validate(RunPlan{}.app(AppId::Pr).graph(
                        GraphPreset::Dct))
                    .has_value());
    EXPECT_FALSE(session
                     .validate(RunPlan{}
                                   .app(AppId::Pr)
                                   .graph(GraphPreset::Dct)
                                   .config("SG1"))
                     .has_value());
}

TEST(RunPlan, ValidationRejectsMalformedConfigName)
{
    Session session;
    const RunPlan plan =
        RunPlan{}.app(AppId::Pr).graph(GraphPreset::Dct).config("QQQ");
    const std::optional<std::string> why = session.validate(plan);
    ASSERT_TRUE(why.has_value());
    EXPECT_NE(why->find("QQQ"), std::string::npos);
}

TEST(RunPlan, ValidationRejectsInvalidAppConfigPair)
{
    Session session;
    // PR is static: PushPull ("DD1") must be rejected, without aborting.
    // The README quotes this message.
    std::string error;
    const RunPlan plan =
        RunPlan{}.app(AppId::Pr).graph(GraphPreset::Dct).config("DD1");
    EXPECT_EQ(session.validate(plan),
              "PR has a static traversal and requires Push or Pull, got DD1");
    EXPECT_FALSE(session.tryRun(plan, &error).has_value());
    EXPECT_EQ(error, *session.validate(plan));
    // CC is dynamic: a Push config is likewise invalid.
    EXPECT_EQ(session.validate(RunPlan{}
                                   .app(AppId::Cc)
                                   .graph(GraphPreset::Dct)
                                   .config("SG1")),
              "CC has a dynamic traversal and requires PushPull, got SG1");
}

TEST(RunPlan, ValidationRejectsUnusableParamsAndScales)
{
    Session session;
    SimParams empty;
    empty.l1SizeKiB = 0; // no whole set of ways
    const RunPlan plan = RunPlan{}
                             .app(AppId::Pr)
                             .graph(GraphPreset::Raj)
                             .scale(0.01)
                             .config("TG0")
                             .params(empty);
    const std::optional<std::string> why = session.validate(plan);
    ASSERT_TRUE(why.has_value());
    EXPECT_NE(why->find("L1"), std::string::npos);
    std::string error;
    EXPECT_FALSE(session.tryRun(plan, &error).has_value());
    EXPECT_EQ(error, *why);
    // Through a manifest, the failed validation names the unit.
    WorkUnit unit;
    unit.app = AppId::Pr;
    unit.preset = GraphPreset::Raj;
    unit.scale = 0.01;
    unit.config = parseConfig("TG0");
    unit.params = empty;
    Manifest manifest;
    manifest.add(unit);
    try {
        runManifest(session, manifest);
        ADD_FAILURE() << "expected EvalError";
    } catch (const EvalError& err) {
        EXPECT_EQ(std::string(err.what()),
                  "work unit '" + unit.key() + "': invalid run plan: " + *why);
    }
    // A scale that rounds to zero is a plan error, not a GraphStore panic.
    EXPECT_TRUE(session
                    .validate(RunPlan{}
                                  .app(AppId::Pr)
                                  .graph(GraphPreset::Raj)
                                  .scale(1e-7)
                                  .config("TG0"))
                    .has_value());
}

TEST(RunPlan, UnbuildableGraphFailsThePlanNotTheProcess)
{
    Session session;
    const RunPlan missing =
        RunPlan{}.app(AppId::Pr).graphFile("no/such/input.mtx").config(
            "TG0");
    EXPECT_FALSE(session.validate(missing).has_value());
    std::string error;
    EXPECT_FALSE(session.tryRun(missing, &error).has_value());
    EXPECT_NE(error.find("cannot open MatrixMarket file"), std::string::npos)
        << error;
    // Through a manifest, the unit's input is at fault, not its plan.
    WorkUnit unit;
    unit.app = AppId::Pr;
    unit.path = "no/such/input.mtx";
    unit.config = parseConfig("TG0");
    Manifest manifest;
    manifest.add(unit);
    try {
        runManifest(session, manifest);
        ADD_FAILURE() << "expected EvalError";
    } catch (const EvalError& err) {
        EXPECT_EQ(std::string(err.what()),
                  "work unit '" + unit.key() + "': " + error);
    }
    // A preset too small to synthesize is refused from its spec alone,
    // before any graph is drawn.
    const RunPlan tiny =
        RunPlan{}.app(AppId::Pr).graph(GraphPreset::Dct).scale(1e-4).config(
            "TG0");
    const std::optional<std::string> why = session.validate(tiny);
    ASSERT_TRUE(why.has_value());
    EXPECT_NE(why->find("too small to synthesize DCT"), std::string::npos)
        << *why;
    EXPECT_FALSE(session.tryRun(tiny, &error).has_value());
    EXPECT_EQ(error, *why);
}

TEST(RunPlan, CustomGraphOutlivesTheCallersGraph)
{
    // The plan keeps a copy that shares the graph's arrays, so it still
    // runs after the caller's graph is gone.
    Session session;
    RunPlan plan = RunPlan{}.app(AppId::Pr).config("SG1");
    {
        const CsrGraph scoped = smallGraph();
        plan.graph(scoped, "api-small");
    }
    const RunOutcome later = session.run(plan);
    const RunOutcome direct = session.run(
        RunPlan{}.app(AppId::Pr).graph(smallGraph(), "api-small").config(
            "SG1"));
    EXPECT_EQ(later.result, direct.result);
    ASSERT_NE(later.pr(), nullptr);
    ASSERT_NE(direct.pr(), nullptr);
    EXPECT_EQ(later.pr()->ranks, direct.pr()->ranks);
}

TEST(Seed, ZeroSeedMatchesUnseededPaperRuns)
{
    // seed=0 must be bit-identical to a plan that never sets a seed, for
    // every app: the golden paper results key off it.
    Session session;
    const CsrGraph& g = smallGraph();
    for (AppId app : kAllApps) {
        const bool dynamic =
            algoProperties(app).traversal == TraversalKind::Dynamic;
        const RunPlan base = RunPlan{}
                                 .app(app)
                                 .graph(g, "api-small")
                                 .config(dynamic ? "DD1" : "SG1");
        const RunOutcome unseeded = session.run(base);
        const RunOutcome zero = session.run(RunPlan{base}.seed(0));
        EXPECT_EQ(zero.result.cycles, unseeded.result.cycles)
            << appName(app);
        EXPECT_EQ(zero.result.kernels, unseeded.result.kernels)
            << appName(app);
    }
}

TEST(Seed, PerturbsRandomizedAppsOnly)
{
    // MIS and CLR break symmetry with hashed priorities, so a nonzero
    // seed must change the computed sets/colorings; the deterministic
    // apps ignore the seed entirely.
    Session session;
    const CsrGraph& g = smallGraph();

    const auto misStateWith = [&](std::uint64_t seed) {
        const RunOutcome out = session.run(RunPlan{}
                                               .app(AppId::Mis)
                                               .graph(g, "api-small")
                                               .config("SG1")
                                               .seed(seed));
        EXPECT_NE(out.mis(), nullptr);
        return out.mis()->state;
    };
    const auto same_seed_repeat = misStateWith(7) == misStateWith(7);
    EXPECT_TRUE(same_seed_repeat);
    EXPECT_NE(misStateWith(7), misStateWith(0));

    const auto colorsWith = [&](std::uint64_t seed) {
        const RunOutcome out = session.run(RunPlan{}
                                               .app(AppId::Clr)
                                               .graph(g, "api-small")
                                               .config("SG1")
                                               .seed(seed));
        EXPECT_NE(out.clr(), nullptr);
        return out.clr()->colors;
    };
    EXPECT_NE(colorsWith(9), colorsWith(0));

    const auto prCyclesWith = [&](std::uint64_t seed) {
        return session
            .run(RunPlan{}
                     .app(AppId::Pr)
                     .graph(g, "api-small")
                     .config("SG1")
                     .seed(seed))
            .result.cycles;
    };
    EXPECT_EQ(prCyclesWith(7), prCyclesWith(0));
}

// --- outputs --------------------------------------------------------------

TEST(Outputs, CanBeDisabled)
{
    Session session;
    const RunOutcome out = session.run(RunPlan{}
                                           .app(AppId::Cc)
                                           .graph(smallGraph(), "api-small")
                                           .config("DG1")
                                           .collectOutputs(false));
    EXPECT_FALSE(out.hasOutput());
    EXPECT_EQ(out.cc(), nullptr);
    EXPECT_GT(out.result.cycles, 0u);
}

TEST(Outputs, ExplicitPlanCollectOutputsBeatsSessionDefault)
{
    SessionOptions opts;
    opts.collectOutputs = false;
    Session session(opts);
    const RunPlan base = RunPlan{}
                             .app(AppId::Cc)
                             .graph(smallGraph(), "api-small")
                             .config("DG1");
    // No explicit setting: the session default (off) applies.
    EXPECT_FALSE(session.run(base).hasOutput());
    // An explicit .collectOutputs(true) must override the session's
    // collect-off default, not be silently ANDed away.
    EXPECT_TRUE(session.run(RunPlan{base}.collectOutputs(true)).hasOutput());
    // And the reverse: an explicit off wins over a collect-on session.
    Session collecting;
    EXPECT_FALSE(
        collecting.run(RunPlan{base}.collectOutputs(false)).hasOutput());
    EXPECT_TRUE(collecting.run(base).hasOutput());
}

// --- graph store ----------------------------------------------------------

TEST(GraphStoreTest, ConcurrentGetSharesOneBuild)
{
    GraphStore store;
    GraphStore::GraphPtr a, b;
    std::thread t1([&] { a = store.get(GraphPreset::Dct, 0.05); });
    std::thread t2([&] { b = store.get(GraphPreset::Dct, 0.05); });
    t1.join();
    t2.join();
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a.get(), b.get()); // one deterministic build, shared
    EXPECT_EQ(store.counters().entries, 1u);
    EXPECT_GE(a->numVertices(), 64u);
}

TEST(GraphStoreTest, KeysOnPresetAndScale)
{
    GraphStore store;
    const auto small = store.get(GraphPreset::Dct, 0.05);
    const auto other_scale = store.get(GraphPreset::Dct, 0.1);
    const auto other_preset = store.get(GraphPreset::Raj, 0.05);
    EXPECT_NE(small.get(), other_scale.get());
    EXPECT_NE(small.get(), other_preset.get());
    EXPECT_EQ(store.counters().entries, 3u);
    // Same key twice: cached.
    EXPECT_EQ(store.get(GraphPreset::Dct, 0.05).get(), small.get());
}

TEST(GraphStoreTest, QuantizesNearlyEqualScaleKeys)
{
    // 0.1 + 0.2 != 0.3 as raw doubles; a raw-double key would cache two
    // copies of the same graph. The key quantizes to 1e-6, so both
    // spellings share one entry: the second get() is a hit.
    GraphStore store;
    const double computed = 0.1 + 0.2;
    ASSERT_NE(computed, 0.3); // the premise: raw doubles differ
    EXPECT_EQ(GraphStore::quantizeScale(computed),
              GraphStore::quantizeScale(0.3));
    EXPECT_EQ(GraphStore::canonicalScale(computed), 0.3);
    const auto a = store.get(GraphPreset::Dct, 0.3);
    const auto b = store.get(GraphPreset::Dct, computed);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(store.counters().entries, 1u);
    EXPECT_EQ(store.counters().hits, 1u);
    EXPECT_EQ(store.counters().misses, 1u);
    // Scales at least 1e-6 apart stay distinct.
    EXPECT_NE(GraphStore::quantizeScale(0.3),
              GraphStore::quantizeScale(0.300001));
}

TEST(GraphStoreTest, EvictionKeepsOutstandingHandlesValid)
{
    GraphStore store;
    const auto g = store.get(GraphPreset::Dct, 0.05);
    const VertexId n = g->numVertices();
    (void)store.get(GraphPreset::Raj, 0.05);
    // A budget below one graph keeps only the newest entry: g's goes.
    store.setBudgetBytes(1);
    EXPECT_EQ(store.counters().entries, 1u);
    EXPECT_EQ(store.counters().evictions, 1u);
    EXPECT_EQ(g->numVertices(), n); // old handle still usable
    store.setBudgetBytes(0);
    const auto rebuilt = store.get(GraphPreset::Dct, 0.05);
    EXPECT_EQ(store.counters().misses, 3u) << "g's entry was not evicted";
    EXPECT_EQ(rebuilt->numVertices(), n); // deterministic rebuild
    EXPECT_EQ(*rebuilt, *g);
    store.clear();
    EXPECT_EQ(store.counters().entries, 0u);
    EXPECT_EQ(store.counters().evictions, 3u);
    EXPECT_EQ(g->numVertices(), n);
}

TEST(GraphStoreTest, InFlightBuildsSurviveBudgetAndClear)
{
    // The budget and clear() drop completed entries only. A build they
    // race keeps its slot, and its graph lands in the store once.
    GraphStore store;
    std::atomic<bool> built{false};
    std::atomic<bool> squeezing{false};
    std::thread squeezer([&] {
        while (!built) {
            store.setBudgetBytes(1);
            store.clear();
            store.setBudgetBytes(0);
            squeezing = true;
        }
    });
    while (!squeezing)
        std::this_thread::yield();
    const GraphStore::GraphPtr g = store.get(GraphPreset::Dct, 1.0);
    built = true;
    squeezer.join();
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(*g, buildPresetScaled(GraphPreset::Dct, 1.0));
    const GraphStore::Counters c = store.counters();
    EXPECT_EQ(c.misses, 1u);
    if (c.entries == 0) {
        EXPECT_EQ(c.residentBytes, 0u);
    } else {
        EXPECT_EQ(c.entries, 1u);
        EXPECT_EQ(c.residentBytes, g->memoryBytes());
    }
}

// --- parallel sweep -------------------------------------------------------

/** A sweep of @p wl on a fresh Session @p threads wide at GGA_SCALE. */
SweepResult
sweepAtWidth(const Workload& wl, std::vector<SystemConfig> configs,
             unsigned threads)
{
    SessionOptions opts;
    opts.threads = threads;
    Session session(opts);
    const SweepSpec spec = buildSweepSpec(wl, std::move(configs),
                                          SimParams{}, evaluationScale());
    return sweepFromResults(spec,
                            runManifest(session, manifestForSpecs({spec})));
}

TEST(ParallelSweep, BitIdenticalToSerial)
{
    const Workload wl{AppId::Mis, GraphPreset::Raj};
    const SweepResult serial = sweepAtWidth(wl, figureConfigs(false), 1);
    const SweepResult parallel = sweepAtWidth(wl, figureConfigs(false), 3);

    ASSERT_EQ(parallel.results.size(), serial.results.size());
    for (std::size_t i = 0; i < serial.results.size(); ++i) {
        EXPECT_EQ(parallel.results[i].config, serial.results[i].config);
        EXPECT_EQ(parallel.results[i].run.cycles,
                  serial.results[i].run.cycles);
        EXPECT_EQ(parallel.results[i].run.kernels,
                  serial.results[i].run.kernels);
        EXPECT_EQ(parallel.results[i].run.events,
                  serial.results[i].run.events);
    }
    EXPECT_EQ(parallel.best, serial.best);
    EXPECT_EQ(parallel.predicted, serial.predicted);
    EXPECT_EQ(parallel.bestCycles, serial.bestCycles);
    EXPECT_EQ(parallel.predictedCycles, serial.predictedCycles);
    EXPECT_EQ(parallel.baselineCycles, serial.baselineCycles);
}

TEST(ParallelSweep, DynamicWorkloadAcrossThreads)
{
    // CC exercises the PushPull body; two threads over its 4 figure
    // configs double as a concurrent-simulator smoke test.
    const Workload wl{AppId::Cc, GraphPreset::Raj};
    const SweepResult sweep = sweepAtWidth(wl, figureConfigs(true), 2);
    ASSERT_GE(sweep.results.size(), 4u);
    for (const ConfigResult& r : sweep.results)
        EXPECT_GE(r.run.cycles, sweep.bestCycles);
    EXPECT_NE(sweep.find(sweep.predicted), nullptr);
}

} // namespace
} // namespace gga
