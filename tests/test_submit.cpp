/**
 * @file
 * Tests for the async execution layer: the TaskPool executor,
 * Session::submit / submitAll (parity with the synchronous run path,
 * batches in flight at several thread widths, invalid plans surfacing as
 * future errors), and sweeps sharing one executor.
 */

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.hpp"
#include "api/task_pool.hpp"
#include "eval/manifest.hpp"
#include "eval/run.hpp"
#include "graph/generator.hpp"
#include "harness/sweep.hpp"
#include "harness/workloads.hpp"
#include "support/faults.hpp"

namespace gga {
namespace {

const CsrGraph&
smallGraph()
{
    static const CsrGraph g = [] {
        GenSpec spec;
        spec.name = "submit-small";
        spec.numVertices = 500;
        spec.numDirectedEdges = 2500;
        spec.dist = DegreeDist::PowerLaw;
        spec.p1 = 2.2;
        spec.p2 = 1.4;
        spec.maxDegree = 40;
        spec.fracIntraBlock = 0.3;
        spec.seed = 777;
        return generateGraph(spec);
    }();
    return g;
}

Session
makeSession(unsigned threads)
{
    SessionOptions opts;
    opts.threads = threads;
    return Session(opts);
}

// --- TaskPool -------------------------------------------------------------

TEST(TaskPoolTest, RunsEveryJobAtSeveralWidths)
{
    for (unsigned width : {1u, 2u, 4u}) {
        TaskPool pool(width);
        EXPECT_EQ(pool.width(), width);
        std::atomic<int> ran{0};
        std::vector<std::future<int>> futures;
        for (int i = 0; i < 32; ++i) {
            futures.push_back(pool.submit([i, &ran] {
                ran.fetch_add(1);
                return i * i;
            }));
        }
        for (int i = 0; i < 32; ++i)
            EXPECT_EQ(futures[i].get(), i * i) << "width " << width;
        EXPECT_EQ(ran.load(), 32);
    }
}

TEST(TaskPoolTest, WidthZeroClampsToOneWorker)
{
    TaskPool pool(0);
    EXPECT_EQ(pool.width(), 1u);
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(TaskPoolTest, ExceptionsPropagateThroughFutures)
{
    TaskPool pool(2);
    std::future<int> bad =
        pool.submit([]() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The worker that carried the throwing task keeps serving.
    EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(TaskPoolTest, DestructorDrainsPostedJobs)
{
    std::atomic<int> ran{0};
    {
        TaskPool pool(1);
        for (int i = 0; i < 8; ++i)
            pool.post([&ran] { ran.fetch_add(1); });
    }
    EXPECT_EQ(ran.load(), 8);
}

TEST(TaskPoolTest, InteractiveLaneOvertakesQueuedBatchWork)
{
    TaskPool pool(1);
    // Park the single worker so everything below queues behind it.
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    pool.post([opened] { opened.wait(); }, Lane::Interactive);
    while (pool.stats().running == 0)
        std::this_thread::yield();

    std::mutex order_mu;
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
        pool.post(
            [&order_mu, &order, i] {
                const std::lock_guard<std::mutex> lock(order_mu);
                order.push_back(100 + i);
            },
            Lane::Batch);
    }
    for (int i = 0; i < 3; ++i) {
        pool.post(
            [&order_mu, &order, i] {
                const std::lock_guard<std::mutex> lock(order_mu);
                order.push_back(i);
            },
            Lane::Interactive);
    }
    const TaskPool::Stats queued = pool.stats();
    EXPECT_EQ(queued.interactiveDepth, 3u);
    EXPECT_EQ(queued.batchDepth, 3u);

    gate.set_value();
    while (pool.stats().completedTotal < 7)
        std::this_thread::yield();
    // Interactive tasks posted LAST still ran first, FIFO within lanes.
    // (order_mu, not the completion counter, synchronizes the reads.)
    const std::vector<int> want{0, 1, 2, 100, 101, 102};
    const std::lock_guard<std::mutex> lock(order_mu);
    EXPECT_EQ(order, want);
}

TEST(TaskPoolTest, PostAllBatchesFanOutAcrossWorkers)
{
    TaskPool pool(4);
    std::atomic<int> ran{0};
    std::mutex ids_mu;
    std::set<std::thread::id> ids;
    const auto note = [&ran, &ids_mu, &ids] {
        {
            const std::lock_guard<std::mutex> lock(ids_mu);
            ids.insert(std::this_thread::get_id());
        }
        ran.fetch_add(1);
    };
    std::vector<TaskPool::Task> tasks;
    // The slow head unit holds its worker for 200ms, so the short units
    // behind it MUST run on the other workers meanwhile.
    tasks.emplace_back([note] {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        note();
    });
    for (int i = 0; i < 15; ++i) {
        tasks.emplace_back([note] {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            note();
        });
    }
    pool.postAll(std::move(tasks), Lane::Batch);
    while (pool.stats().completedTotal < 16)
        std::this_thread::yield();
    EXPECT_EQ(ran.load(), 16);
    const std::lock_guard<std::mutex> lock(ids_mu);
    EXPECT_GE(ids.size(), 2u);
}

/** Post @p count tasks in one postAll batch; each logs its index when
 *  it starts, then sleeps @p hold. Returns the start order. */
std::vector<int>
batchStartOrder(unsigned width, int count, std::chrono::milliseconds hold)
{
    std::mutex mu;
    std::vector<int> starts;
    {
        TaskPool pool(width);
        std::vector<TaskPool::Task> tasks;
        for (int i = 0; i < count; ++i) {
            tasks.emplace_back([&mu, &starts, i, hold] {
                {
                    const std::lock_guard<std::mutex> lock(mu);
                    starts.push_back(i);
                }
                std::this_thread::sleep_for(hold);
            });
        }
        pool.postAll(std::move(tasks), Lane::Batch);
    } // the destructor drains the batch
    return starts;
}

TEST(TaskPoolTest, PostAllStartsABatchInSubmissionOrder)
{
    // The batch lane is a FIFO: every worker takes the next unit from
    // the batch's head, so the opening starts all come from the head of
    // the batch, never its tail.
    const std::vector<int> starts =
        batchStartOrder(4, 64, std::chrono::milliseconds(2));
    ASSERT_EQ(starts.size(), 64u);
    std::vector<int> seen(64, 0);
    for (const int i : starts)
        ++seen[static_cast<std::size_t>(i)];
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1) << "unit " << i;
    for (std::size_t k = 0; k < 8; ++k)
        EXPECT_LT(starts[k], 32) << "start #" << k;
}

TEST(TaskPoolTest, PostAllAtWidthOneRunsInExactOrder)
{
    const std::vector<int> starts =
        batchStartOrder(1, 64, std::chrono::milliseconds(0));
    std::vector<int> want(64);
    for (int i = 0; i < 64; ++i)
        want[static_cast<std::size_t>(i)] = i;
    EXPECT_EQ(starts, want);
}

// --- scheduling determinism -----------------------------------------------

TEST(SchedulingDeterminism, ManifestBytesIdenticalAcrossWidthsUnderYields)
{
    // A manifest wide enough to fan out, with seeds making keys distinct.
    Manifest manifest;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        WorkUnit u;
        // CC's dynamic traversal requires a PushPull config; PR is static.
        u.app = seed % 2 == 0 ? AppId::Pr : AppId::Cc;
        u.config = *tryParseConfig(seed % 2 == 0 ? "SG1" : "DD1");
        u.preset = GraphPreset::Raj;
        u.scale = 0.05;
        u.seed = seed;
        manifest.add(u);
    }

    // Arm the executor's scheduling perturbation: every 3rd dequeue
    // yields, shuffling which worker runs what. Results must not care.
    // RAII reset: a failing expectation must not leave later tests
    // running with faults armed.
    struct FaultReset
    {
        ~FaultReset() { faults::configure(""); }
    } reset;
    faults::configure("seed=1,pool.yield=2/3");
    std::optional<std::string> want;
    for (unsigned width : {1u, 2u, 8u}) {
        Session session = makeSession(width);
        const std::string got =
            runManifest(session, manifest).toJson().dump();
        if (!want)
            want = got;
        else
            EXPECT_EQ(got, *want) << "width " << width;
    }
}

// --- Session::submit ------------------------------------------------------

TEST(Submit, MatchesRunForEveryApp)
{
    Session serial;
    Session async = makeSession(2);
    const CsrGraph& g = smallGraph();

    for (AppId app : kAllApps) {
        const bool dynamic =
            algoProperties(app).traversal == TraversalKind::Dynamic;
        const RunPlan plan = RunPlan{}
                                 .app(app)
                                 .graph(g, "submit-small")
                                 .config(dynamic ? "DD1" : "SG1");
        const RunOutcome want = serial.run(plan);
        const RunOutcome got = async.submit(plan).get();
        EXPECT_EQ(got.result.cycles, want.result.cycles) << appName(app);
        EXPECT_EQ(got.result.kernels, want.result.kernels) << appName(app);
        EXPECT_EQ(got.result.events, want.result.events) << appName(app);
        EXPECT_TRUE(got.output == want.output) << appName(app);
        EXPECT_EQ(got.name(), want.name()) << appName(app);
    }
}

TEST(Submit, BatchOfFuturesInFlightAtSeveralWidths)
{
    const CsrGraph& g = smallGraph();

    // One batch spanning apps and configs, big enough to keep every
    // width's workers busy simultaneously.
    std::vector<RunPlan> plans;
    for (AppId app : {AppId::Pr, AppId::Mis, AppId::Cc}) {
        const bool dynamic =
            algoProperties(app).traversal == TraversalKind::Dynamic;
        for (const SystemConfig& cfg : figureConfigs(dynamic))
            plans.push_back(RunPlan{}
                                .app(app)
                                .graph(g, "submit-small")
                                .config(cfg)
                                .collectOutputs(false));
    }

    Session serial;
    std::vector<RunOutcome> want;
    for (const RunPlan& plan : plans)
        want.push_back(serial.run(plan));

    for (unsigned width : {1u, 2u, 4u}) {
        Session async = makeSession(width);
        std::vector<std::future<RunOutcome>> futures =
            async.submitAll(plans);
        ASSERT_EQ(futures.size(), want.size());
        for (std::size_t i = 0; i < futures.size(); ++i) {
            const RunOutcome got = futures[i].get();
            EXPECT_EQ(got.result.cycles, want[i].result.cycles)
                << want[i].name() << " at width " << width;
            EXPECT_EQ(got.result.events, want[i].result.events)
                << want[i].name() << " at width " << width;
            EXPECT_EQ(got.config, want[i].config) << "ordering at " << i;
        }
    }
}

TEST(Submit, InvalidPlanSurfacesThroughFutureNotFatal)
{
    Session session = makeSession(2);
    // PR is static: "DD1" fails the app x config predicate.
    std::future<RunOutcome> bad = session.submit(
        RunPlan{}.app(AppId::Pr).graph(smallGraph(), "g").config("DD1"));
    try {
        bad.get();
        FAIL() << "expected PlanError";
    } catch (const PlanError& err) {
        EXPECT_NE(std::string(err.what()).find("PR"), std::string::npos);
    }
    // A malformed config name and an empty plan surface the same way.
    EXPECT_THROW(session
                     .submit(RunPlan{}
                                 .app(AppId::Pr)
                                 .graph(smallGraph(), "g")
                                 .config("QQQ"))
                     .get(),
                 PlanError);
    EXPECT_THROW(session.submit(RunPlan{}).get(), PlanError);
    // The executor survives bad plans.
    const RunOutcome ok =
        session
            .submit(RunPlan{}.app(AppId::Pr).graph(smallGraph(), "g").config(
                "SG1"))
            .get();
    EXPECT_GT(ok.result.cycles, 0u);
}

TEST(Submit, ThreadsOptionResolves)
{
    EXPECT_EQ(makeSession(3).threads(), 3u);
    EXPECT_GE(Session().threads(), 1u); // environment default
}

TEST(Submit, OversizedWidthIsClampedBeforeTheExecutorStarts)
{
    // The constructor hands threads() to the graph builds, so the clamp
    // must hold before the first submit starts the TaskPool.
    EXPECT_EQ(makeSession(100000).threads(), TaskPool::kMaxThreads);
}

// --- sweeps on a shared executor ------------------------------------------

TEST(SubmitSweep, ConcurrentSweepsMatchStandaloneSerial)
{
    const Workload mis{AppId::Mis, GraphPreset::Raj};
    const Workload cc{AppId::Cc, GraphPreset::Raj};
    const SimParams params;
    // Every session sweeps at the GGA_SCALE evaluation scale, so only the
    // executor width differs between the serial and parallel runs.
    SessionOptions opts;
    opts.scale = evaluationScale();

    opts.threads = 1;
    Session serial(opts);
    const SweepResult mis_serial =
        submitSweep(serial, mis, figureConfigs(false), params).collect();
    const SweepResult cc_serial =
        submitSweep(serial, cc, figureConfigs(true), params).collect();

    for (unsigned width : {2u, 4u}) {
        opts.threads = width;
        Session session(opts);
        // Both sweeps in flight on one executor before either collects.
        PendingSweep a =
            submitSweep(session, mis, figureConfigs(false), params);
        PendingSweep b =
            submitSweep(session, cc, figureConfigs(true), params);
        const SweepResult mis_par = a.collect();
        const SweepResult cc_par = b.collect();

        for (const auto& [serial, par] :
             {std::pair<const SweepResult&, const SweepResult&>(mis_serial,
                                                                mis_par),
              std::pair<const SweepResult&, const SweepResult&>(cc_serial,
                                                                cc_par)}) {
            ASSERT_EQ(par.results.size(), serial.results.size());
            for (std::size_t i = 0; i < serial.results.size(); ++i) {
                EXPECT_EQ(par.results[i].config, serial.results[i].config);
                EXPECT_EQ(par.results[i].run.cycles,
                          serial.results[i].run.cycles);
                EXPECT_EQ(par.results[i].run.events,
                          serial.results[i].run.events);
            }
            EXPECT_EQ(par.best, serial.best);
            EXPECT_EQ(par.predicted, serial.predicted);
            EXPECT_EQ(par.bestCycles, serial.bestCycles);
            EXPECT_EQ(par.predictedCycles, serial.predictedCycles);
            EXPECT_EQ(par.baselineCycles, serial.baselineCycles);
        }
    }
}

} // namespace
} // namespace gga
