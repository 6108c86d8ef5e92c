/**
 * @file
 * The two in-process workloads: sweep-fig5 (the Fig. 5 sweep without
 * AMZ, fanned out over a width-4 Session executor) and sim-amz (SSSP on
 * AMZ@0.1 under the four push configurations, serially through
 * Session::run).
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <future>

#include "bench.hpp"
#include "eval/run.hpp"
#include "harness/sweep.hpp"

namespace perfbench {

namespace {

constexpr double kSweepScale = 0.1;
constexpr unsigned kSweepWidth = 4;
constexpr double kAmzScale = 0.1;
const char* const kAmzConfigs[] = {"SG1", "SGR", "SD1", "SDR"};

/** One unit's plan, timestamps, and outcome within a pass. */
struct UnitSlot
{
    std::string key;
    gga::GraphPreset preset{};
    gga::RunPlan plan;
    std::uint64_t apiSpan = 0;
    std::int64_t submitNs = 0, startNs = 0, endNs = 0;
    gga::RunOutcome outcome;
};

/**
 * Run passes until the budget is spent: another pass starts only while
 * the previous one would still fit. At least one pass always runs.
 */
void
runPasses(const Options& opts, const std::function<void()>& pass)
{
    const std::int64_t start = nowNs();
    for (;;) {
        const std::int64_t t0 = nowNs();
        pass();
        const std::int64_t t1 = nowNs();
        if (secondsBetween(start, t1) + secondsBetween(t0, t1) >
            opts.seconds)
            break;
    }
}

/** Median of set-up repetitions of @p setup (each timed whole). */
gga::Json
timeSetups(const Options& opts, Tracer& tracer,
           const std::function<void(std::uint64_t span, std::uint64_t req)>&
               setup)
{
    gga::Json times = gga::Json::array();
    for (unsigned r = 0; r < std::max(1u, opts.setups); ++r) {
        const std::uint64_t req = r + 1;
        const std::int64_t t0 = nowNs();
        const std::uint64_t span = tracer.newId();
        setup(span, req);
        const std::int64_t t1 = nowNs();
        tracer.record(span, 0, req, "bench", "setup", t0, t1);
        times.push(gga::Json(secondsBetween(t0, t1)));
    }
    return times;
}

gga::Json
storeCounters()
{
    const gga::GraphStore::Counters c = gga::GraphStore::instance().counters();
    gga::Json j = gga::Json::object();
    j.set("hits", gga::Json(c.hits));
    j.set("misses", gga::Json(c.misses));
    j.set("resident_bytes",
          gga::Json(static_cast<std::uint64_t>(c.residentBytes)));
    return j;
}

/** The pass's per-unit samples, timestamps relative to @p t0. */
gga::Json
unitsJson(const std::vector<UnitSlot>& slots, std::int64_t t0)
{
    gga::Json arr = gga::Json::array();
    for (const UnitSlot& s : slots) {
        gga::Json u = gga::Json::object();
        u.set("key", gga::Json(s.key));
        u.set("app", gga::Json(s.outcome.appName));
        u.set("config", gga::Json(s.outcome.config.name()));
        u.set("submit_ns", gga::Json(static_cast<std::int64_t>(s.submitNs - t0)));
        u.set("start_ns", gga::Json(static_cast<std::int64_t>(s.startNs - t0)));
        u.set("end_ns", gga::Json(static_cast<std::int64_t>(s.endNs - t0)));
        u.set("row", unitRow(s.key, s.outcome).toJson());
        arr.push(std::move(u));
    }
    return arr;
}

/** Check every slot's output; append "<key>: why" per failure. */
void
checkOutputs(std::vector<UnitSlot>& slots, Oracle& oracle,
             const std::map<gga::GraphPreset, gga::GraphStore::GraphPtr>& graphs,
             double scale, gga::Json& failures)
{
    for (UnitSlot& s : slots) {
        const std::string why =
            oracle.check(s.outcome, *graphs.at(s.preset),
                         gga::presetName(s.preset) + "@" +
                             std::to_string(scale));
        if (!why.empty())
            failures.push(gga::Json(s.key + ": " + why));
        s.outcome.output = std::monostate{}; // the pass's largest buffers
    }
}

struct SweepInputs
{
    std::vector<gga::SweepSpec> specs;
    gga::Manifest manifest;
    std::map<gga::GraphPreset, gga::GraphStore::GraphPtr> graphs;
};

/** Resolve the inputs, predict every workload, build the sweep. */
SweepInputs
setupSweep(const Options& opts, Tracer& tracer, std::uint64_t parent,
           std::uint64_t req)
{
    gga::GraphStore& store = gga::GraphStore::instance();
    store.clear();
    SweepInputs in;
    for (gga::GraphPreset p : gga::kAllGraphPresets) {
        if (p == gga::GraphPreset::Amz)
            continue;
        Scope s(tracer, "graph", "GraphStore::get " + gga::presetName(p),
                parent, req);
        in.graphs[p] = store.get(p, kSweepScale);
    }
    for (gga::AppId app : gga::kAllApps) {
        for (gga::GraphPreset p : gga::kAllGraphPresets) {
            if (p == gga::GraphPreset::Amz)
                continue;
            const gga::Workload wl{app, p};
            gga::SystemConfig pred;
            {
                Scope s(tracer, "model", "predictWorkload " + wl.name(),
                        parent, req);
                pred = gga::predictWorkload(wl, gga::SimParams{}, kSweepScale);
            }
            std::vector<std::uint64_t> seeds{0};
            if (seededApp(app)) {
                seeds.clear();
                if (opts.coverSeeds) {
                    for (std::uint64_t s = 1; s <= kSeedPool; ++s)
                        seeds.push_back(s);
                } else {
                    seeds.push_back(workloadSeed(opts.seed, wl.name()));
                }
            }
            for (std::uint64_t seed : seeds) {
                gga::SweepSpec spec = gga::buildSweepSpec(
                    wl, gga::figureConfigs(wl.dynamic()), gga::SimParams{},
                    kSweepScale, pred);
                for (gga::WorkUnit& u : spec.units)
                    u.seed = seed;
                in.specs.push_back(std::move(spec));
            }
        }
    }
    in.manifest = gga::manifestForSpecs(in.specs);
    return in;
}

} // namespace

gga::Json
runSweepFig5(const Options& opts, Tracer& tracer)
{
    gga::SessionOptions so;
    so.scale = kSweepScale;
    so.threads = kSweepWidth;
    gga::Session session(so);

    SweepInputs in;
    gga::Json record = gga::Json::object();
    record.set("setup_s",
               timeSetups(opts, tracer, [&](std::uint64_t span,
                                            std::uint64_t req) {
                   in = setupSweep(opts, tracer, span, req);
                   session.executor(); // workers spawn during set-up
               }));
    record.set("graph_after_setup", storeCounters());

    Oracle oracle;
    gga::Json passes = gga::Json::array();
    gga::Json failures = gga::Json::array();
    std::uint64_t req = 100;
    runPasses(opts, [&] {
        ++req;
        const auto& units = in.manifest.units();
        std::vector<UnitSlot> slots(units.size());
        for (std::size_t i = 0; i < units.size(); ++i) {
            slots[i].key = units[i].key();
            slots[i].preset = *units[i].preset;
            slots[i].plan = gga::planForUnit(units[i]).collectOutputs(true);
            slots[i].apiSpan = tracer.newId();
        }
        const std::uint64_t passSpan = tracer.newId();
        const std::uint64_t stealsBefore = session.executorStats().stealsTotal;

        const std::int64_t t0 = nowNs();
        std::vector<gga::TaskPool::Task> tasks(slots.size());
        std::vector<std::future<void>> done;
        done.reserve(slots.size());
        for (std::size_t i = 0; i < slots.size(); ++i) {
            UnitSlot* slot = &slots[i];
            slot->submitNs = t0;
            done.push_back(gga::TaskPool::package(
                [&session, &tracer, slot, req, passSpan] {
                    slot->startNs = nowNs();
                    const std::uint64_t simSpan = tracer.newId();
                    slot->outcome = session.run(slot->plan);
                    slot->endNs = nowNs();
                    tracer.record(simSpan, slot->apiSpan, req, "sim",
                                  "Session::run", slot->startNs, slot->endNs);
                    tracer.record(slot->apiSpan, passSpan, req, "api",
                                  "Session::executor().postAll",
                                  slot->submitNs, slot->endNs);
                },
                tasks[i]));
        }
        session.executor().postAll(std::move(tasks), gga::Lane::Batch);
        for (std::future<void>& f : done)
            f.get();
        const std::int64_t t1 = nowNs();

        gga::ResultSet results;
        std::size_t serializedBytes = 0;
        {
            Scope s(tracer, "eval", "ResultSet::toJson", passSpan, req);
            std::vector<gga::UnitResult> rows;
            rows.reserve(slots.size());
            for (const UnitSlot& slot : slots)
                rows.push_back(unitRow(slot.key, slot.outcome));
            results = gga::ResultSet::fromRows(std::move(rows));
            serializedBytes = results.toJson().dump().size();
        }
        std::size_t predIsBest = 0;
        double logSum = 0;
        {
            Scope s(tracer, "harness", "sweepFromResults", passSpan, req);
            for (const gga::SweepSpec& spec : in.specs) {
                const gga::SweepResult r = gga::sweepFromResults(spec, results);
                predIsBest += r.predictedCycles == r.bestCycles ? 1 : 0;
                logSum += std::log(static_cast<double>(r.predictedCycles) /
                                   static_cast<double>(r.bestCycles));
            }
        }
        const std::int64_t t2 = nowNs();
        tracer.record(passSpan, 0, req, "bench", "sweep pass", t0, t2);

        gga::Json pass = gga::Json::object();
        pass.set("wall_s", gga::Json(secondsBetween(t0, t1)));
        pass.set("job_s", gga::Json(secondsBetween(t0, t2)));
        pass.set("serialized_bytes",
                 gga::Json(static_cast<std::uint64_t>(serializedBytes)));
        pass.set("width", gga::Json(session.threads()));
        pass.set("steals",
                 gga::Json(session.executorStats().stealsTotal - stealsBefore));
        const double specs = static_cast<double>(in.specs.size());
        pass.set("pred_is_best",
                 gga::Json(static_cast<double>(predIsBest) / specs));
        pass.set("pred_over_best_geomean", gga::Json(std::exp(logSum / specs)));
        pass.set("units", unitsJson(slots, t0));
        passes.push(std::move(pass));

        checkOutputs(slots, oracle, in.graphs, kSweepScale, failures);
    });
    record.set("graph", storeCounters());
    record.set("peak_rss_mb", gga::Json(peakRssMb()));
    record.set("passes", std::move(passes));
    record.set("failures", std::move(failures));
    return record;
}

gga::Json
runSimAmz(const Options& opts, Tracer& tracer)
{
    gga::SessionOptions so;
    so.scale = kAmzScale;
    so.threads = 1;
    gga::Session session(so);

    std::map<gga::GraphPreset, gga::GraphStore::GraphPtr> graphs;
    gga::Json record = gga::Json::object();
    record.set("setup_s",
               timeSetups(opts, tracer, [&](std::uint64_t span,
                                            std::uint64_t req) {
                   gga::GraphStore& store = gga::GraphStore::instance();
                   store.clear();
                   Scope s(tracer, "graph", "GraphStore::get AMZ", span, req);
                   graphs[gga::GraphPreset::Amz] =
                       store.get(gga::GraphPreset::Amz, kAmzScale);
               }));
    record.set("graph_after_setup", storeCounters());

    std::vector<gga::WorkUnit> units;
    for (const char* name : kAmzConfigs) {
        gga::WorkUnit u;
        u.app = gga::AppId::Sssp;
        u.preset = gga::GraphPreset::Amz;
        u.scale = kAmzScale;
        u.config = gga::parseConfig(name);
        units.push_back(u);
    }

    Oracle oracle;
    gga::Json passes = gga::Json::array();
    gga::Json failures = gga::Json::array();
    std::uint64_t req = 100;
    runPasses(opts, [&] {
        ++req;
        const std::uint64_t passSpan = tracer.newId();
        std::vector<UnitSlot> slots(units.size());
        const std::int64_t t0 = nowNs();
        for (std::size_t i = 0; i < units.size(); ++i) {
            UnitSlot& slot = slots[i];
            slot.submitNs = nowNs();
            slot.key = units[i].key();
            slot.preset = *units[i].preset;
            slot.plan = gga::planForUnit(units[i]).collectOutputs(true);
            Scope s(tracer, "sim", "Session::run", passSpan, req);
            slot.startNs = nowNs();
            slot.outcome = session.run(slot.plan);
            slot.endNs = nowNs();
        }
        const std::int64_t t1 = nowNs();
        tracer.record(passSpan, 0, req, "bench", "sim pass", t0, t1);

        gga::Json pass = gga::Json::object();
        pass.set("wall_s", gga::Json(secondsBetween(t0, t1)));
        pass.set("job_s", gga::Json(secondsBetween(t0, t1)));
        pass.set("width", gga::Json(1u));
        pass.set("steals", gga::Json(std::uint64_t{0}));
        pass.set("units", unitsJson(slots, t0));
        passes.push(std::move(pass));

        checkOutputs(slots, oracle, graphs, kAmzScale, failures);
    });
    record.set("graph", storeCounters());
    record.set("peak_rss_mb", gga::Json(peakRssMb()));
    record.set("passes", std::move(passes));
    record.set("failures", std::move(failures));
    return record;
}

} // namespace perfbench
