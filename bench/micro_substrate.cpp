/**
 * @file
 * Micro-benchmark of the event engine: the time wheel's host ns/event
 * against the binary-heap engine it replaced, in a bulk schedule+run loop
 * and a chained steady state, plus end-to-end run times of PR, CC and
 * SSSP on a small power-law graph. These measure the simulator's own
 * performance (host wall-time), not simulated cycles.
 *
 * Usage: micro_substrate --json OUT
 *
 * scripts/bench_gates.py runs it five times and gates the median
 * speedup_vs_heap of each engine row at >= 1.5.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "graph/generator.hpp"
#include "sim/engine.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"

namespace {

/**
 * The binary min-heap engine this repository used before the time wheel
 * (PR 3), kept verbatim as the measurement baseline so the wheel's
 * speedup stays verifiable in-tree rather than being a one-off number.
 */
class BinaryHeapEngine
{
  public:
    gga::Cycles now() const { return now_; }

    void
    schedule(gga::Cycles delay, gga::EventFn fn)
    {
        scheduleAt(now_ + delay, std::move(fn));
    }

    void
    scheduleAt(gga::Cycles when, gga::EventFn fn)
    {
        heap_.push_back(Event{when, seq_++, std::move(fn)});
        siftUp(heap_.size() - 1);
    }

    void
    run()
    {
        while (!heap_.empty()) {
            Event ev = std::move(heap_.front());
            if (heap_.size() > 1) {
                heap_.front() = std::move(heap_.back());
                heap_.pop_back();
                siftDown(0);
            } else {
                heap_.pop_back();
            }
            now_ = ev.time;
            ++processed_;
            ev.fn();
        }
    }

    std::uint64_t processedEvents() const { return processed_; }

  private:
    struct Event
    {
        gga::Cycles time;
        std::uint64_t seq;
        gga::EventFn fn;
    };

    static bool
    later(const Event& a, const Event& b)
    {
        return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }

    void
    siftUp(std::size_t i)
    {
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!later(heap_[parent], heap_[i]))
                break;
            std::swap(heap_[parent], heap_[i]);
            i = parent;
        }
    }

    void
    siftDown(std::size_t i)
    {
        const std::size_t n = heap_.size();
        while (true) {
            const std::size_t l = 2 * i + 1;
            const std::size_t r = 2 * i + 2;
            std::size_t best = i;
            if (l < n && later(heap_[best], heap_[l]))
                best = l;
            if (r < n && later(heap_[best], heap_[r]))
                best = r;
            if (best == i)
                break;
            std::swap(heap_[best], heap_[i]);
            i = best;
        }
    }

    std::vector<Event> heap_;
    gga::Cycles now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t processed_ = 0;
};

/**
 * Delay distribution matching the simulator's profile: mostly 0/1-cycle
 * continuations, a band of cache/NoC latencies, occasional DRAM fills
 * and rare far timeouts. Pre-generated so every engine replays the same
 * schedule.
 */
std::vector<gga::Cycles>
benchDelays(std::size_t count)
{
    std::vector<gga::Cycles> delays(count);
    gga::Xoshiro256StarStar rng(17);
    for (auto& d : delays) {
        const std::uint64_t r = rng.nextBounded(1000);
        if (r < 300)
            d = 0;
        else if (r < 620)
            d = 1;
        else if (r < 800)
            d = 2 + rng.nextBounded(30);
        else if (r < 950)
            d = 30 + rng.nextBounded(270); // L2/NoC round trips
        else if (r < 999)
            d = 170 + rng.nextBounded(2000); // DRAM + queueing
        else
            d = (1u << 20) + rng.nextBounded(5000); // far timeout
    }
    return delays;
}

/**
 * Steady-state throughput: keep @p width self-rescheduling chains alive
 * until @p total events have executed. Models the simulator's hot loop
 * (pop one event, schedule a successor).
 */
template <typename EngineT>
double
chainedNsPerEvent(std::size_t width, std::uint64_t total)
{
    const std::vector<gga::Cycles> delays = benchDelays(4096);
    EngineT engine;
    std::uint64_t executed = 0;
    struct Chain
    {
        EngineT* engine;
        std::uint64_t* executed;
        std::uint64_t total;
        const std::vector<gga::Cycles>* delays;

        void
        operator()() const
        {
            if (++*executed >= total)
                return;
            engine->schedule((*delays)[*executed & 4095], *this);
        }
    };
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < width; ++c)
        engine.schedule(delays[c & 4095],
                        Chain{&engine, &executed, total, &delays});
    engine.run();
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count();
    return ns / static_cast<double>(executed);
}

/** Bulk schedule+run: @p total events in batches of @p batch. */
template <typename EngineT>
double
bulkNsPerEvent(std::size_t batch, std::uint64_t total)
{
    const std::vector<gga::Cycles> delays = benchDelays(4096);
    std::uint64_t count = 0;
    std::uint64_t scheduled = 0;
    const auto start = std::chrono::steady_clock::now();
    EngineT engine;
    for (; scheduled < total; scheduled += batch) {
        for (std::size_t i = 0; i < batch; ++i)
            engine.schedule(delays[(scheduled + i) & 4095],
                            [&count] { ++count; });
        engine.run();
    }
    const auto stop = std::chrono::steady_clock::now();
    // The check also keeps the optimizer from dropping the callbacks.
    if (count != scheduled)
        GGA_FATAL("engine ran ", count, " of ", scheduled,
                  " scheduled events");
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count();
    return ns / static_cast<double>(count);
}

const gga::CsrGraph&
benchGraph()
{
    static const gga::CsrGraph g = [] {
        gga::GenSpec spec;
        spec.name = "bench";
        spec.numVertices = 4096;
        spec.numDirectedEdges = 32768;
        spec.dist = gga::DegreeDist::PowerLaw;
        spec.p1 = 2.3;
        spec.p2 = 2.0;
        spec.maxDegree = 256;
        spec.fracIntraBlock = 0.4;
        spec.seed = 7;
        return gga::generateGraph(spec);
    }();
    return g;
}

struct EndToEnd
{
    const char* app;
    const char* config;
    double wallMs;
    std::uint64_t simEvents;
    double hostEventsPerSec;
};

EndToEnd
runEndToEnd(gga::Session& session, const char* app_name, gga::AppId app,
            const char* config)
{
    const gga::RunPlan plan = gga::RunPlan{}
                                  .app(app)
                                  .graph(benchGraph(), "bench")
                                  .config(config)
                                  .collectOutputs(false);
    // Warm the graph caches once, then time three runs and keep the best.
    session.run(plan);
    double best_ms = 1e100;
    std::uint64_t events = 0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        const gga::RunOutcome out = session.run(plan);
        const auto stop = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(stop - start).count();
        events = out.result.events;
        best_ms = std::min(best_ms, ms);
    }
    return EndToEnd{app_name, config, best_ms, events,
                    static_cast<double>(events) / (best_ms * 1e-3)};
}

int
runSuite(const char* path)
{
    constexpr std::uint64_t kBulkTotal = 4u << 20;
    constexpr std::uint64_t kChainTotal = 4u << 20;
    constexpr std::size_t kBatch = 4096;
    constexpr std::size_t kWidth = 1024;

    std::fprintf(stderr, "[bench] engine bulk schedule+run...\n");
    const double wheel_bulk = bulkNsPerEvent<gga::Engine>(kBatch, kBulkTotal);
    const double heap_bulk =
        bulkNsPerEvent<BinaryHeapEngine>(kBatch, kBulkTotal);
    std::fprintf(stderr, "[bench] engine chained steady state...\n");
    const double wheel_chain =
        chainedNsPerEvent<gga::Engine>(kWidth, kChainTotal);
    const double heap_chain =
        chainedNsPerEvent<BinaryHeapEngine>(kWidth, kChainTotal);

    // Three apps spanning the traversal taxonomy: PR (static pull), SSSP
    // (static push/pull with weights), CC (dynamic, PushPull-only) — so
    // the host events/sec rows cover more than one kernel shape.
    std::fprintf(stderr, "[bench] end-to-end PR/CC/SSSP runs...\n");
    gga::Session session;
    const EndToEnd tg0 = runEndToEnd(session, "PR", gga::AppId::Pr, "TG0");
    const EndToEnd sgr = runEndToEnd(session, "PR", gga::AppId::Pr, "SGR");
    const EndToEnd cc = runEndToEnd(session, "CC", gga::AppId::Cc, "DG1");
    const EndToEnd sssp =
        runEndToEnd(session, "SSSP", gga::AppId::Sssp, "SGR");

    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return 1;
    }
    char stamp[64];
    const std::time_t t = std::time(nullptr);
    std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ",
                  std::gmtime(&t));
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"suite\": \"gga micro_substrate\",\n");
    std::fprintf(f, "  \"generated\": \"%s\",\n", stamp);
    std::fprintf(f, "  \"engine\": {\n");
    std::fprintf(f,
                 "    \"bulk_schedule_run\": {\"events\": %llu, "
                 "\"wheel_ns_per_event\": %.2f, \"heap_ns_per_event\": "
                 "%.2f, \"wheel_events_per_sec\": %.0f, "
                 "\"speedup_vs_heap\": %.2f},\n",
                 static_cast<unsigned long long>(kBulkTotal), wheel_bulk,
                 heap_bulk, 1e9 / wheel_bulk, heap_bulk / wheel_bulk);
    std::fprintf(f,
                 "    \"chained_steady_state\": {\"events\": %llu, "
                 "\"width\": %zu, \"wheel_ns_per_event\": %.2f, "
                 "\"heap_ns_per_event\": %.2f, \"wheel_events_per_sec\": "
                 "%.0f, \"speedup_vs_heap\": %.2f}\n",
                 static_cast<unsigned long long>(kChainTotal), kWidth,
                 wheel_chain, heap_chain, 1e9 / wheel_chain,
                 heap_chain / wheel_chain);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"end_to_end\": [\n");
    const EndToEnd* rows[] = {&tg0, &sgr, &cc, &sssp};
    constexpr std::size_t kRows = sizeof rows / sizeof rows[0];
    for (std::size_t i = 0; i < kRows; ++i) {
        std::fprintf(f,
                     "    {\"app\": \"%s\", \"config\": \"%s\", "
                     "\"wall_ms\": %.1f, \"sim_events\": %llu, "
                     "\"host_events_per_sec\": %.0f}%s\n",
                     rows[i]->app, rows[i]->config, rows[i]->wallMs,
                     static_cast<unsigned long long>(rows[i]->simEvents),
                     rows[i]->hostEventsPerSec,
                     i + 1 == kRows ? "" : ",");
    }
    std::fprintf(f, "  ]\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::fprintf(stderr,
                 "[bench] wrote %s (bulk %.1fns/ev %.2fx, chained %.1fns/ev "
                 "%.2fx vs heap)\n",
                 path, wheel_bulk, heap_bulk / wheel_bulk, wheel_chain,
                 heap_chain / wheel_chain);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc != 3 || std::strcmp(argv[1], "--json") != 0)
        GGA_FATAL("usage: micro_substrate --json OUT");
    gga::setVerbose(false);
    return runSuite(argv[2]);
}
