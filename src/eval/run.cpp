#include "eval/run.hpp"

#include <chrono>
#include <memory>

#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/thread_annotations.hpp"

namespace gga {

namespace {

template <typename T>
std::uint64_t
hashVector(const std::vector<T>& v, std::uint64_t h = kFnv1aBasis)
{
    return fnv1a(v.data(), v.size() * sizeof(T), h);
}

} // namespace

std::optional<OutputSummary>
summarizeOutput(const RunOutcome& outcome)
{
    if (!outcome.hasOutput())
        return std::nullopt;
    OutputSummary s;
    s.kind = outcome.appName;
    if (const PrOutput* pr = outcome.pr()) {
        s.elements = pr->ranks.size();
        s.hash = hashVector(pr->ranks);
    } else if (const SsspOutput* sssp = outcome.sssp()) {
        s.elements = sssp->dist.size();
        s.hash = hashVector(sssp->dist);
    } else if (const MisOutput* mis = outcome.mis()) {
        s.elements = mis->state.size();
        s.hash = hashVector(mis->state);
    } else if (const ClrOutput* clr = outcome.clr()) {
        s.elements = clr->colors.size();
        s.hash = hashVector(clr->colors);
    } else if (const BcOutput* bc = outcome.bc()) {
        s.elements = bc->delta.size();
        s.hash = hashVector(bc->sigma,
                            hashVector(bc->level, hashVector(bc->delta)));
    } else if (const CcOutput* cc = outcome.cc()) {
        s.elements = cc->labels.size();
        s.hash = hashVector(cc->labels);
    }
    return s;
}

RunPlan
planForUnit(const WorkUnit& unit)
{
    RunPlan plan;
    plan.app(unit.app);
    if (unit.preset)
        plan.graph(*unit.preset).scale(unit.scale);
    else
        plan.graphFile(unit.path);
    plan.config(unit.config);
    // The paper's Table IV system unless the unit overrides it, never the
    // session default: a unit must run identically no matter which
    // session executes its shard.
    plan.params(unit.params.value_or(SimParams{}));
    plan.collectOutputs(unit.collectOutputs);
    plan.seed(unit.seed);
    return plan;
}

Lane
manifestLane(const Manifest& manifest)
{
    const auto it = manifest.meta.find("priority");
    if (it == manifest.meta.end())
        return Lane::Batch;
    if (const std::optional<Lane> lane = parseLane(it->second))
        return *lane;
    GGA_WARN("manifest priority '", it->second,
             "' is not a lane name; using batch");
    return Lane::Batch;
}

namespace {

/**
 * Per-unit context of a streamed manifest, heap-boxed so the queue task
 * is one unique_ptr — InlineFunction's 64 inline bytes hold it with room
 * to spare, and the RunPlan/key/callback live in one allocation.
 */
struct StreamedUnit
{
    Session* session = nullptr;
    std::shared_ptr<std::function<void(const UnitEvent&)>> cb;
    std::size_t index = 0;
    std::string key;
    RunPlan plan;
};

void
runStreamedUnit(const StreamedUnit& unit)
{
    UnitEvent ev;
    ev.index = unit.index;
    ev.key = unit.key;
    std::string why;
    const auto t0 = std::chrono::steady_clock::now();
    std::optional<RunOutcome> out;
    try {
        out = unit.session->tryRun(unit.plan, &why);
    } catch (const std::exception& err) {
        // Escaping a pool task would end the process; the unit fails.
        why = err.what();
    }
    if (out) {
        UnitResult r;
        r.key = unit.key;
        r.run = out->result;
        r.output = summarizeOutput(*out);
        ev.result = std::move(r);
        ev.appName = out->appName;
    } else {
        // Only a plan that fails validation is an invalid plan; a valid
        // one whose input cannot be built reports tryRun's reason as is.
        const bool invalid = unit.session->validate(unit.plan).has_value();
        ev.error = "work unit '" + unit.key + "': " +
                   (invalid ? "invalid run plan: " : "") + why;
    }
    ev.millis = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    (*unit.cb)(ev);
}

} // namespace

void
submitManifest(Session& session, const Manifest& manifest,
               std::function<void(const UnitEvent&)> onUnit)
{
    GGA_ASSERT(onUnit, "submitManifest needs a callback");
    // One shared copy of the callback: the caller's functor may be heavy.
    auto cb = std::make_shared<std::function<void(const UnitEvent&)>>(
        std::move(onUnit));
    std::vector<TaskPool::Task> tasks;
    tasks.reserve(manifest.size());
    std::size_t index = 0;
    for (const WorkUnit& u : manifest.units()) {
        auto unit = std::make_unique<StreamedUnit>();
        unit->session = &session;
        unit->cb = cb;
        unit->index = index;
        unit->key = u.key();
        unit->plan = planForUnit(u);
        tasks.emplace_back(
            [unit = std::move(unit)] { runStreamedUnit(*unit); });
        ++index;
    }
    session.executor().postAll(std::move(tasks), manifestLane(manifest));
}

ResultSet
runManifest(Session& session, const Manifest& manifest)
{
    // Events land in manifest-order slots. The callback shares ownership,
    // so the state outlives this frame until the last unit has reported.
    struct Gather
    {
        explicit Gather(std::size_t units) : events(units) {}
        Mutex mu;
        CondVar cv;
        std::vector<UnitEvent> events GGA_GUARDED_BY(mu);
        std::size_t done GGA_GUARDED_BY(mu) = 0;
    };
    auto gather = std::make_shared<Gather>(manifest.size());
    submitManifest(session, manifest, [gather](const UnitEvent& ev) {
        MutexLock lock(gather->mu);
        gather->events[ev.index] = ev;
        ++gather->done;
        gather->cv.notify_one();
    });
    std::vector<UnitEvent> events;
    {
        MutexLock lock(gather->mu);
        while (gather->done < manifest.size())
            gather->cv.wait(gather->mu);
        events = std::move(gather->events);
    }
    std::vector<UnitResult> rows;
    rows.reserve(events.size());
    for (UnitEvent& ev : events) {
        if (!ev.result)
            throw EvalError(ev.error);
        rows.push_back(std::move(*ev.result));
    }
    return ResultSet::fromRows(std::move(rows));
}

} // namespace gga
