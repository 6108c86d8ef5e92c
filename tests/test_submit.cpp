/**
 * @file
 * Tests for the async execution layer: the TaskPool executor, manifests
 * on the Session executor (parity with the synchronous run path, batches
 * in flight at several thread widths, units that cannot run surfacing as
 * events and EvalErrors), and sweeps sharing one executor.
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
#include "harness/sweep.hpp"
#include "harness/workloads.hpp"
#include "support/faults.hpp"
#include "support/thread_annotations.hpp"

namespace gga {
namespace {

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

// --- manifests on the Session executor ---------------------------------

/** @p app under SG1 (DD1 for the dynamic CC) on RAJ at @p scale. */
WorkUnit
rajUnit(AppId app, const SystemConfig& config, bool collect = false)
{
    WorkUnit u;
    u.app = app;
    u.preset = GraphPreset::Raj;
    u.scale = 0.05;
    u.config = config;
    u.collectOutputs = collect;
    return u;
}

TEST(Submit, ManifestRowsMatchRunForEveryApp)
{
    Manifest manifest;
    for (AppId app : kAllApps) {
        const bool dynamic =
            algoProperties(app).traversal == TraversalKind::Dynamic;
        manifest.add(rajUnit(app, parseConfig(dynamic ? "DD1" : "SG1"),
                             true));
    }
    Session serial;
    Session async = makeSession(2);
    const ResultSet got = runManifest(async, manifest);
    ASSERT_EQ(got.size(), manifest.size());
    for (const WorkUnit& u : manifest.units()) {
        const RunOutcome want = serial.run(planForUnit(u));
        const UnitResult& row = got.at(u.key());
        EXPECT_EQ(row.run, want.result) << u.key();
        EXPECT_EQ(row.output, summarizeOutput(want)) << u.key();
        ASSERT_TRUE(row.output.has_value()) << u.key();
        EXPECT_EQ(row.output->kind, appName(u.app));
    }
}

TEST(Submit, ManifestInFlightAtSeveralWidths)
{
    // One batch spanning apps and configs, big enough to keep every
    // width's workers busy simultaneously.
    Manifest manifest;
    for (AppId app : {AppId::Pr, AppId::Mis, AppId::Cc}) {
        const bool dynamic =
            algoProperties(app).traversal == TraversalKind::Dynamic;
        for (const SystemConfig& cfg : figureConfigs(dynamic))
            manifest.add(rajUnit(app, cfg));
    }

    Session serial;
    std::vector<RunResult> want;
    for (const WorkUnit& u : manifest.units())
        want.push_back(serial.run(planForUnit(u)).result);

    for (unsigned width : {1u, 2u, 4u}) {
        Session async = makeSession(width);
        const ResultSet got = runManifest(async, manifest);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            const std::string& key = manifest.units()[i].key();
            EXPECT_EQ(got.at(key).run, want[i]) << key << " at " << width;
        }
    }
}

TEST(Submit, UnitsThatCannotRunAreEventsThenEvalErrors)
{
    Session session = makeSession(2);
    Manifest manifest;
    const WorkUnit ok = rajUnit(AppId::Pr, parseConfig("SG1"));
    // PR is static: "DD1" fails the app x config predicate.
    const WorkUnit invalid = rajUnit(AppId::Pr, parseConfig("DD1"));
    WorkUnit missing;
    missing.app = AppId::Pr;
    missing.path = "no/such/input.mtx";
    missing.config = parseConfig("TG0");
    manifest.add(ok);
    manifest.add(missing);
    manifest.add(invalid);

    // Every unit reports, in whatever order it finishes.
    Mutex mu;
    CondVar cv;
    std::vector<UnitEvent> events(manifest.size());
    std::size_t done = 0;
    submitManifest(session, manifest, [&](const UnitEvent& ev) {
        MutexLock lock(mu);
        events[ev.index] = ev;
        ++done;
        cv.notify_one();
    });
    {
        MutexLock lock(mu);
        while (done < manifest.size())
            cv.wait(mu);
    }
    ASSERT_TRUE(events[0].result.has_value());
    EXPECT_EQ(events[0].appName, "PR");
    // A valid plan whose input cannot be built is not an invalid plan.
    EXPECT_FALSE(events[1].result.has_value());
    EXPECT_EQ(events[1].error.find("work unit '" + missing.key() + "': "),
              0u)
        << events[1].error;
    EXPECT_NE(events[1].error.find("cannot open MatrixMarket file"),
              std::string::npos);
    EXPECT_EQ(events[1].error.find("invalid run plan"), std::string::npos);
    EXPECT_FALSE(events[2].result.has_value());
    EXPECT_EQ(events[2].error,
              "work unit '" + invalid.key() + "': invalid run plan: " +
                  *session.validate(planForUnit(invalid)));

    // runManifest names the first failed unit in manifest order.
    try {
        runManifest(session, manifest);
        ADD_FAILURE() << "expected EvalError";
    } catch (const EvalError& err) {
        EXPECT_EQ(std::string(err.what()), events[1].error);
    }
    // The executor survives units that cannot run.
    Manifest good;
    good.add(ok);
    EXPECT_EQ(runManifest(session, good).at(ok.key()).run,
              events[0].result->run);
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
    // Every sweep runs at the GGA_SCALE evaluation scale, so only the
    // executor width differs between the serial and parallel runs.
    const SweepSpec mis_spec = buildSweepSpec(mis, figureConfigs(false),
                                              SimParams{}, evaluationScale());
    const SweepSpec cc_spec = buildSweepSpec(cc, figureConfigs(true),
                                             SimParams{}, evaluationScale());

    Session serial = makeSession(1);
    const SweepResult mis_serial = sweepFromResults(
        mis_spec, runManifest(serial, manifestForSpecs({mis_spec})));
    const SweepResult cc_serial = sweepFromResults(
        cc_spec, runManifest(serial, manifestForSpecs({cc_spec})));

    for (unsigned width : {2u, 4u}) {
        Session session = makeSession(width);
        // Both sweeps in flight on one executor, as one manifest.
        const ResultSet results =
            runManifest(session, manifestForSpecs({mis_spec, cc_spec}));
        const SweepResult mis_par = sweepFromResults(mis_spec, results);
        const SweepResult cc_par = sweepFromResults(cc_spec, results);

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
