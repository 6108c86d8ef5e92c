/**
 * @file
 * The Plan/Session workload API: declarative per-run plans, validated
 * against the AppRegistry, executed through the thread-safe GraphStore.
 *
 *   Session session;
 *   RunOutcome out = session.run(RunPlan{}
 *                                    .app(AppId::Pr)
 *                                    .graph(GraphPreset::Raj)
 *                                    .scale(0.25)
 *                                    .config("SGR"));
 *   out.result.cycles;      // timing
 *   out.pr()->ranks;        // typed functional output
 *
 * The Session is the one way to run a workload: the figures, manifests,
 * gga_serve and the benches all reach the simulator through it.
 */

#ifndef GGA_API_SESSION_HPP
#define GGA_API_SESSION_HPP

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/graph_store.hpp"
#include "api/outputs.hpp"
#include "api/registry.hpp"
#include "api/task_pool.hpp"
#include "graph/presets.hpp"
#include "model/config.hpp"
#include "sim/params.hpp"

namespace gga {

/** Declarative description of one workload run (builder-style). */
class RunPlan
{
  public:
    RunPlan() = default;

    /** Which application to run (required). */
    RunPlan& app(AppId a);

    /** Run on a preset input, resolved through the session's GraphStore. */
    RunPlan& graph(GraphPreset p);

    /**
     * Run on a MatrixMarket file, loaded (and cached) through the
     * session's GraphStore. Scale does not apply to file inputs.
     */
    RunPlan& graphFile(std::string path);

    /** Run on a caller-owned graph (shared ownership). */
    RunPlan& graph(std::shared_ptr<const CsrGraph> g,
                   std::string label = "custom");

    /**
     * Run on a caller-owned graph without transferring ownership. The
     * graph must outlive the run.
     */
    RunPlan& graph(const CsrGraph& g, std::string label = "custom");

    /** Preset scale override in (0, 1]; defaults to the session's scale. */
    RunPlan& scale(double s);

    /** The design-space point to simulate (required). */
    RunPlan& config(const SystemConfig& c);

    /**
     * Parse a paper-style config name ("SGR"). A malformed name is a
     * validation error reported by Session::validate / tryRun, not a
     * fatal.
     */
    RunPlan& config(std::string_view name);

    /** Hardware-parameter override; defaults to the session's params. */
    RunPlan& params(const SimParams& p);

    /**
     * Seed for the app's deterministic RNG (MIS/CLR vertex priorities).
     * 0 (the default) reproduces the paper runs exactly; distinct seeds
     * yield distinct — but individually reproducible — runs. Apps without
     * stochastic choices ignore it.
     */
    RunPlan& seed(std::uint64_t s);

    /**
     * Collect the app's functional output. An explicit setting — true or
     * false — overrides the session's SessionOptions::collectOutputs
     * default; a plan that never calls this inherits it.
     */
    RunPlan& collectOutputs(bool on = true);

    /**
     * Executor lane for submit/submitAll (Lane::Interactive by default:
     * a directly-submitted plan is someone waiting on a result). Manifest
     * execution plans it to Lane::Batch. Irrelevant to synchronous run().
     */
    RunPlan& priority(Lane lane);

    // --- introspection (used by Session and tests) ---
    std::optional<AppId> plannedApp() const { return app_; }
    std::optional<GraphPreset> plannedPreset() const { return preset_; }
    const std::string& plannedFile() const { return file_; }
    const std::shared_ptr<const CsrGraph>& customGraph() const
    {
        return custom_;
    }
    const std::string& graphLabel() const { return graphLabel_; }
    std::optional<double> plannedScale() const { return scale_; }
    std::optional<SystemConfig> plannedConfig() const { return config_; }
    const std::string& badConfigName() const { return badConfigName_; }
    std::optional<SimParams> plannedParams() const { return params_; }
    std::uint64_t plannedSeed() const { return seed_; }
    /** nullopt = inherit the session default. */
    std::optional<bool> outputsRequested() const { return collectOutputs_; }
    Lane plannedPriority() const { return priority_; }

  private:
    std::optional<AppId> app_;
    std::optional<GraphPreset> preset_;
    std::string file_;
    std::shared_ptr<const CsrGraph> custom_;
    std::string graphLabel_;
    std::optional<double> scale_;
    std::optional<SystemConfig> config_;
    std::string badConfigName_;
    std::optional<SimParams> params_;
    std::uint64_t seed_ = 0;
    std::optional<bool> collectOutputs_;
    Lane priority_ = Lane::Interactive;
};

/** Everything one run produced: identity, timing, typed outputs. */
struct RunOutcome
{
    AppId app{};
    std::string appName;
    std::string graphName;
    SystemConfig config;
    RunResult result;
    AppOutput output; ///< monostate when collection was disabled

    /** Typed accessors; nullptr when this run produced something else. */
    const PrOutput* pr() const { return std::get_if<PrOutput>(&output); }
    const SsspOutput* sssp() const
    {
        return std::get_if<SsspOutput>(&output);
    }
    const MisOutput* mis() const { return std::get_if<MisOutput>(&output); }
    const ClrOutput* clr() const { return std::get_if<ClrOutput>(&output); }
    const BcOutput* bc() const { return std::get_if<BcOutput>(&output); }
    const CcOutput* cc() const { return std::get_if<CcOutput>(&output); }

    bool hasOutput() const
    {
        return !std::holds_alternative<std::monostate>(output);
    }

    /** "PR-RAJ @ SGR"-style label. */
    std::string name() const;
};

/** Session-wide defaults applied to plans that don't override them. */
struct SessionOptions
{
    double scale = 1.0;    ///< preset scale for plans without .scale()
    SimParams params;      ///< hardware parameters for plans without .params()
    bool collectOutputs = true;
    bool verboseRuns = false; ///< GGA_INFORM one line per run
    /**
     * Worker threads of the session's executor (Session::submit). 0 = the
     * GGA_SESSION_THREADS environment default — see
     * defaultSessionThreads(). The executor starts lazily on the first
     * submit, so purely synchronous sessions never spawn threads.
     */
    unsigned threads = 0;
    /**
     * Pin executor workers to CPUs (TaskPoolOptions::pinThreads). Unset =
     * the GGA_PIN_THREADS environment default.
     */
    std::optional<bool> pinThreads;
    /**
     * LRU byte budget applied to the shared GraphStore (see
     * GraphStore::setBudgetBytes). 0 = leave the store's current budget
     * untouched (the default). Nonzero values configure the process-wide
     * store at session construction — last writer wins — so N worker
     * shards on one host can bound how many input graphs stay resident.
     */
    std::size_t graphBudgetBytes = 0;
    /**
     * Snapshot cache directory applied to the shared GraphStore (see
     * GraphStore::setCacheDir): preset graphs load from prebuilt .csrbin
     * files instead of re-synthesizing, and newly built graphs are saved
     * back. Empty = the GGA_GRAPH_CACHE environment default (and when
     * that is unset too, leave the store's current directory untouched).
     * Like the budget, configured at session construction, last writer
     * wins.
     */
    std::string graphCacheDir;
};

/** GGA_GRAPH_CACHE environment value, or "" when unset. */
std::string defaultGraphCacheDir();

/** GGA_SESSION_THREADS environment value; 1 when unset or invalid. */
unsigned defaultSessionThreads();

/** What Session::submit's future throws for a plan that fails validate(). */
class PlanError : public std::runtime_error
{
  public:
    explicit PlanError(const std::string& why)
        : std::runtime_error("invalid run plan: " + why)
    {
    }
};

/**
 * Facade over the registry, the graph store, and the simulator: validates
 * RunPlans and executes them, synchronously (run/tryRun) or on the
 * session's fixed-size executor (submit/submitAll). Stateless between
 * runs apart from the shared GraphStore and the lazily-started TaskPool;
 * one Session may serve many threads concurrently.
 */
class Session
{
  public:
    explicit Session(SessionOptions opts = {});

    const SessionOptions& options() const { return opts_; }
    const AppRegistry& registry() const;
    GraphStore& graphs() const;

    /**
     * Why @p plan cannot run — missing app/graph/config, malformed config
     * name, or an app x config mismatch — or nullopt when it is valid.
     */
    std::optional<std::string> validate(const RunPlan& plan) const;

    /**
     * Run @p plan; returns nullopt (and the reason via @p error) instead
     * of aborting when the plan is invalid.
     */
    std::optional<RunOutcome> tryRun(const RunPlan& plan,
                                     std::string* error = nullptr);

    /** Run @p plan; fatal on an invalid plan. */
    RunOutcome run(const RunPlan& plan);

    /**
     * Execute @p plan asynchronously on the session executor. An invalid
     * plan is reported as a PlanError thrown from future::get() — never a
     * fatal — so one bad plan in a batch doesn't take the process down.
     * The Session must outlive the returned future's completion (the
     * destructor drains the executor, so outstanding futures always
     * complete).
     */
    std::future<RunOutcome> submit(RunPlan plan);

    /**
     * Submit a batch; futures are returned in plan order, so gathering
     * them in order yields results bit-identical to a serial run() loop.
     * Goes through TaskPool::postAll per lane, so the units fan out over
     * the workers' stealing deques instead of the shared injection queue.
     */
    std::vector<std::future<RunOutcome>> submitAll(std::vector<RunPlan> plans);

    /**
     * Executor width: the running TaskPool's actual width once the
     * executor has started, else the resolved request (opts().threads or
     * the environment default) clamped to TaskPool::kMaxThreads. Graph
     * builds use the same width.
     */
    unsigned threads() const;

    /** The shared executor, started on first use. */
    TaskPool& executor();

    /**
     * Telemetry for resident services: tasks posted to the executor but
     * not yet started, and tasks currently running. Zero before the
     * executor's lazy start (queue depth of a pool that doesn't exist).
     */
    std::size_t queueDepth() const;
    unsigned runningTasks() const;

    /** Tasks the executor has finished since it started (monotonic). */
    std::uint64_t completedTasks() const;

    /** Scheduler telemetry; zero-valued before the executor's lazy start. */
    TaskPool::Stats executorStats() const;

  private:
    // Lock-free by design: opts_ is immutable after construction, and
    // the lazily-started executor is published with std::call_once plus
    // release/acquire atomics — poolStarted_ orders pool_'s construction
    // before any telemetry reader dereferences it. No mutex, so nothing
    // here is GUARDED_BY; the annotated classes live one layer down
    // (TaskPool, GraphStore).
    SessionOptions opts_;
    std::once_flag poolOnce_;
    std::unique_ptr<TaskPool> pool_;
    std::atomic<unsigned> actualThreads_{0}; ///< pool width once started
    /** Set (release) after pool_ is constructed; lets const telemetry
     *  readers check for the pool without racing the lazy start. */
    std::atomic<bool> poolStarted_{false};
};

} // namespace gga

#endif // GGA_API_SESSION_HPP
