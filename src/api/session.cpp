#include "api/session.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "support/log.hpp"

namespace gga {

unsigned
defaultSessionThreads()
{
    static const unsigned threads = [] {
        const char* env = std::getenv("GGA_SESSION_THREADS");
        if (!env)
            return 1u;
        const long t = std::atol(env);
        if (t < 1) {
            GGA_WARN("session thread count '", env,
                     "' is invalid; using 1");
            return 1u;
        }
        return static_cast<unsigned>(t);
    }();
    return threads;
}

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
    // Non-owning handle: the caller guarantees the graph outlives the run.
    return graph(std::shared_ptr<const CsrGraph>(&g, [](const CsrGraph*) {}),
                 std::move(label));
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

RunPlan&
RunPlan::priority(Lane lane)
{
    priority_ = lane;
    return *this;
}

std::string
RunOutcome::name() const
{
    return appName + "-" + graphName + " @ " + config.name();
}

std::string
defaultGraphCacheDir()
{
    const char* env = std::getenv("GGA_GRAPH_CACHE");
    return env ? std::string(env) : std::string{};
}

Session::Session(SessionOptions opts) : opts_(std::move(opts))
{
    GGA_ASSERT(opts_.scale > 0.0 && opts_.scale <= 1.0,
               "session scale must be in (0, 1], got ", opts_.scale);
    if (opts_.graphBudgetBytes != 0)
        graphs().setBudgetBytes(opts_.graphBudgetBytes);
    const std::string cache_dir = opts_.graphCacheDir.empty()
                                      ? defaultGraphCacheDir()
                                      : opts_.graphCacheDir;
    if (!cache_dir.empty())
        graphs().setCacheDir(cache_dir);
    // Give graph builds the executor's width: a cold-start worker spends
    // its first seconds building inputs, and those builds are
    // bit-identical at any thread count.
    graphs().setBuildThreads(threads());
}

const AppRegistry&
Session::registry() const
{
    return AppRegistry::instance();
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
    const AppRegistry::Entry* entry = registry().find(*plan.plannedApp());
    if (!entry)
        return "application " +
               std::to_string(static_cast<int>(*plan.plannedApp())) +
               " is not registered";
    if (!plan.plannedPreset() && plan.plannedFile().empty() &&
        !plan.customGraph())
        return "plan has no input graph (RunPlan::graph / graphFile)";
    if (plan.plannedScale() &&
        (*plan.plannedScale() <= 0.0 || *plan.plannedScale() > 1.0))
        return "plan scale must be in (0, 1]";
    if (plan.plannedScale() && !plan.plannedPreset())
        return "plan scale applies to preset inputs only";
    if (!plan.badConfigName().empty())
        return "malformed configuration name '" + plan.badConfigName() + "'";
    if (!plan.plannedConfig())
        return "plan has no configuration (RunPlan::config)";
    if (!entry->validConfig(*plan.plannedConfig()))
        return entry->name + " " + entry->configRequirement() + ", got " +
               plan.plannedConfig()->name();
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
    const AppRegistry::Entry& entry = registry().at(*plan.plannedApp());

    GraphStore::GraphPtr graph = plan.customGraph();
    std::string graph_name = plan.graphLabel();
    if (!graph && !plan.plannedFile().empty()) {
        graph = graphs().getFile(plan.plannedFile());
        graph_name = plan.plannedFile();
    } else if (!graph) {
        const double scale = plan.plannedScale().value_or(opts_.scale);
        graph = graphs().get(*plan.plannedPreset(), scale);
        graph_name = presetName(*plan.plannedPreset());
    }

    RunOutcome out;
    out.app = entry.id;
    out.appName = entry.name;
    out.graphName = std::move(graph_name);
    out.config = *plan.plannedConfig();
    const SimParams params = plan.plannedParams().value_or(opts_.params);
    // An explicit per-plan collectOutputs wins over the session default.
    const bool collect =
        plan.outputsRequested().value_or(opts_.collectOutputs);
    if (opts_.verboseRuns)
        GGA_INFORM("session: running ", out.appName, "-", out.graphName,
                   " on ", out.config.name());
    out.result = entry.run(*graph, out.config, params, plan.plannedSeed(),
                           collect ? &out.output : nullptr);
    return out;
}

RunOutcome
Session::run(const RunPlan& plan)
{
    std::string error;
    std::optional<RunOutcome> out = tryRun(plan, &error);
    if (!out)
        GGA_FATAL("invalid run plan: ", error);
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
    return std::min(opts_.threads == 0 ? defaultSessionThreads()
                                       : opts_.threads,
                    TaskPool::kMaxThreads);
}

TaskPool&
Session::executor()
{
    std::call_once(poolOnce_, [this] {
        pool_ = std::make_unique<TaskPool>(
            TaskPoolOptions{threads(), opts_.pinThreads});
        actualThreads_.store(pool_->width(), std::memory_order_release);
        poolStarted_.store(true, std::memory_order_release);
    });
    return *pool_;
}

std::size_t
Session::queueDepth() const
{
    if (!poolStarted_.load(std::memory_order_acquire))
        return 0;
    return pool_->pending();
}

unsigned
Session::runningTasks() const
{
    if (!poolStarted_.load(std::memory_order_acquire))
        return 0;
    return pool_->active();
}

std::uint64_t
Session::completedTasks() const
{
    if (!poolStarted_.load(std::memory_order_acquire))
        return 0;
    return pool_->completedTotal();
}

std::future<RunOutcome>
Session::submit(RunPlan plan)
{
    const Lane lane = plan.plannedPriority();
    return executor().submit(
        [this, plan = std::move(plan)]() -> RunOutcome {
            std::string error;
            std::optional<RunOutcome> out = tryRun(plan, &error);
            if (!out)
                throw PlanError(error);
            return std::move(*out);
        },
        lane);
}

std::vector<std::future<RunOutcome>>
Session::submitAll(std::vector<RunPlan> plans)
{
    // Batch per lane through postAll: one expander task per lane fans the
    // plans out across the workers' stealing deques, so the shared
    // injection lock is touched twice, not once per plan.
    std::vector<std::future<RunOutcome>> futures;
    futures.reserve(plans.size());
    std::vector<TaskPool::Task> lanes[kLaneCount];
    for (RunPlan& plan : plans) {
        const unsigned lane = static_cast<unsigned>(plan.plannedPriority());
        TaskPool::Task task;
        futures.push_back(TaskPool::package(
            [this, plan = std::move(plan)]() -> RunOutcome {
                std::string error;
                std::optional<RunOutcome> out = tryRun(plan, &error);
                if (!out)
                    throw PlanError(error);
                return std::move(*out);
            },
            task));
        lanes[lane].push_back(std::move(task));
    }
    executor().postAll(std::move(lanes[0]), Lane::Interactive);
    executor().postAll(std::move(lanes[1]), Lane::Batch);
    return futures;
}

TaskPool::Stats
Session::executorStats() const
{
    if (!poolStarted_.load(std::memory_order_acquire))
        return {};
    return pool_->stats();
}

} // namespace gga
