#include "api/session.hpp"

#include <algorithm>
#include <utility>

#include "support/log.hpp"
#include "support/parallel.hpp"

namespace gga {

RunPlan&
RunPlan::app(AppId a)
{
    app_ = a;
    return *this;
}

RunPlan&
RunPlan::graph(GraphPreset p)
{
    preset_ = p;
    file_.clear();
    custom_.reset();
    graphLabel_.clear();
    return *this;
}

RunPlan&
RunPlan::graphFile(std::string path)
{
    file_ = std::move(path);
    preset_.reset();
    custom_.reset();
    graphLabel_.clear();
    return *this;
}

RunPlan&
RunPlan::graph(std::shared_ptr<const CsrGraph> g, std::string label)
{
    custom_ = std::move(g);
    preset_.reset();
    file_.clear();
    graphLabel_ = std::move(label);
    return *this;
}

RunPlan&
RunPlan::graph(const CsrGraph& g, std::string label)
{
    return graph(std::make_shared<const CsrGraph>(g), std::move(label));
}

RunPlan&
RunPlan::scale(double s)
{
    scale_ = s;
    return *this;
}

RunPlan&
RunPlan::config(const SystemConfig& c)
{
    config_ = c;
    badConfigName_.clear();
    return *this;
}

RunPlan&
RunPlan::config(std::string_view name)
{
    const std::optional<SystemConfig> parsed = tryParseConfig(name);
    if (parsed) {
        config_ = *parsed;
        badConfigName_.clear();
    } else {
        config_.reset();
        badConfigName_ = std::string(name);
    }
    return *this;
}

RunPlan&
RunPlan::params(const SimParams& p)
{
    params_ = p;
    return *this;
}

RunPlan&
RunPlan::seed(std::uint64_t s)
{
    seed_ = s;
    return *this;
}

RunPlan&
RunPlan::collectOutputs(bool on)
{
    collectOutputs_ = on;
    return *this;
}

std::string
RunOutcome::name() const
{
    return appName + "-" + graphName + " @ " + config.name();
}

Session::Session(SessionOptions opts) : opts_(std::move(opts))
{
    GGA_ASSERT(opts_.scale > 0.0 && opts_.scale <= 1.0,
               "session scale must be in (0, 1], got ", opts_.scale);
    // Give graph builds the executor's width: a cold-start worker spends
    // its first seconds building inputs, and those builds are
    // bit-identical at any thread count.
    graphs().setBuildThreads(threads());
}

GraphStore&
Session::graphs() const
{
    return GraphStore::instance();
}

std::optional<std::string>
Session::validate(const RunPlan& plan) const
{
    if (!plan.plannedApp())
        return "plan has no application (RunPlan::app)";
    const AppId app = *plan.plannedApp();
    if (!plan.plannedPreset() && plan.plannedFile().empty() &&
        !plan.customGraph())
        return "plan has no input graph (RunPlan::graph / graphFile)";
    if (plan.plannedScale() &&
        (*plan.plannedScale() <= 0.0 || *plan.plannedScale() > 1.0))
        return "plan scale must be in (0, 1]";
    if (plan.plannedScale() && !plan.plannedPreset())
        return "plan scale applies to preset inputs only";
    if (plan.plannedPreset()) {
        if (const std::optional<std::string> why = GraphStore::presetError(
                *plan.plannedPreset(),
                plan.plannedScale().value_or(opts_.scale)))
            return "plan " + *why;
    }
    if (!plan.badConfigName().empty())
        return "malformed configuration name '" + plan.badConfigName() + "'";
    if (!plan.plannedConfig())
        return "plan has no configuration (RunPlan::config)";
    if (!acceptsConfig(app, *plan.plannedConfig()))
        return appName(app) + " " + configRequirement(app) + ", got " +
               plan.plannedConfig()->name();
    if (const std::optional<std::string> why =
            plan.plannedParams().value_or(opts_.params).check())
        return "plan params: " + *why;
    return std::nullopt;
}

std::optional<RunOutcome>
Session::tryRun(const RunPlan& plan, std::string* error)
{
    if (const std::optional<std::string> why = validate(plan)) {
        if (error)
            *error = *why;
        return std::nullopt;
    }
    GraphStore::GraphPtr graph = plan.customGraph();
    std::string graph_name = plan.graphLabel();
    try {
        if (!graph && !plan.plannedFile().empty()) {
            graph = graphs().getFile(plan.plannedFile());
            graph_name = plan.plannedFile();
        } else if (!graph) {
            const double scale = plan.plannedScale().value_or(opts_.scale);
            graph = graphs().get(*plan.plannedPreset(), scale);
            graph_name = presetName(*plan.plannedPreset());
        }
    } catch (const std::exception& err) {
        // The plan's input, not the process, is at fault.
        if (error)
            *error = std::string("cannot build the input graph: ") +
                     err.what();
        return std::nullopt;
    }

    RunOutcome out;
    out.app = *plan.plannedApp();
    out.appName = appName(out.app);
    out.graphName = std::move(graph_name);
    out.config = *plan.plannedConfig();
    const SimParams params = plan.plannedParams().value_or(opts_.params);
    // An explicit per-plan collectOutputs wins over the session default.
    const bool collect =
        plan.outputsRequested().value_or(opts_.collectOutputs);
    if (opts_.verboseRuns)
        GGA_INFORM("session: running ", out.appName, "-", out.graphName,
                   " on ", out.config.name());
    out.result = runApp(out.app, *graph, out.config, params,
                        plan.plannedSeed(), collect ? &out.output : nullptr);
    return out;
}

RunOutcome
Session::run(const RunPlan& plan)
{
    std::string error;
    std::optional<RunOutcome> out = tryRun(plan, &error);
    if (!out)
        GGA_FATAL(validate(plan) ? "invalid run plan: " : "", error);
    return std::move(*out);
}

unsigned
Session::threads() const
{
    // Once the executor exists, report its real width (the TaskPool may
    // fall short of the request); before that, the request, clamped as
    // the TaskPool will clamp it.
    const unsigned actual = actualThreads_.load(std::memory_order_acquire);
    if (actual != 0)
        return actual;
    return std::min(opts_.threads == 0 ? defaultThreads() : opts_.threads,
                    TaskPool::kMaxThreads);
}

TaskPool&
Session::executor()
{
    std::call_once(poolOnce_, [this] {
        pool_ = std::make_unique<TaskPool>(threads());
        actualThreads_.store(pool_->width(), std::memory_order_release);
        poolStarted_.store(true, std::memory_order_release);
    });
    return *pool_;
}

TaskPool::Stats
Session::executorStats() const
{
    if (!poolStarted_.load(std::memory_order_acquire))
        return {};
    return pool_->stats();
}

} // namespace gga
