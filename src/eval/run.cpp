#include "eval/run.hpp"

#include <chrono>
#include <memory>

#include "support/log.hpp"
#include "support/rng.hpp"

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

PendingManifest
submitManifest(Session& session, const Manifest& manifest)
{
    const Lane lane = manifestLane(manifest);
    PendingManifest pending;
    pending.keys_.reserve(manifest.size());
    std::vector<RunPlan> plans;
    plans.reserve(manifest.size());
    for (const WorkUnit& u : manifest.units()) {
        pending.keys_.push_back(u.key());
        plans.push_back(planForUnit(u).priority(lane));
    }
    pending.futures_ = session.submitAll(std::move(plans));
    return pending;
}

ResultSet
PendingManifest::collect()
{
    std::vector<UnitResult> rows;
    rows.reserve(futures_.size());
    for (std::size_t i = 0; i < futures_.size(); ++i) {
        try {
            RunOutcome outcome = futures_[i].get();
            UnitResult r;
            r.key = keys_[i];
            r.run = outcome.result;
            r.output = summarizeOutput(outcome);
            rows.push_back(std::move(r));
        } catch (const PlanError& err) {
            throw EvalError("work unit '" + keys_[i] + "': " + err.what());
        }
    }
    futures_.clear();
    keys_.clear();
    return ResultSet::fromRows(std::move(rows));
}

ResultSet
runManifest(Session& session, const Manifest& manifest)
{
    return submitManifest(session, manifest).collect();
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
    if (std::optional<RunOutcome> out = unit.session->tryRun(unit.plan, &why)) {
        UnitResult r;
        r.key = unit.key;
        r.run = out->result;
        r.output = summarizeOutput(*out);
        ev.result = std::move(r);
        ev.appName = out->appName;
    } else {
        ev.error = "work unit '" + unit.key + "': invalid run plan: " + why;
    }
    ev.millis = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    (*unit.cb)(ev);
}

} // namespace

void
submitManifestStreamed(Session& session, const Manifest& manifest,
                       std::function<void(const UnitEvent&)> onUnit)
{
    GGA_ASSERT(onUnit, "submitManifestStreamed needs a callback");
    const Lane lane = manifestLane(manifest);
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
        unit->plan = planForUnit(u).priority(lane);
        tasks.emplace_back(
            [unit = std::move(unit)] { runStreamedUnit(*unit); });
        ++index;
    }
    session.executor().postAll(std::move(tasks), lane);
}

} // namespace gga
