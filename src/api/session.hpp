/**
 * @file
 * The Plan/Session workload API: declarative per-run plans, validated
 * against Table III, executed through the thread-safe GraphStore.
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
 * gga_serve and the benches all reach the simulator through it. Batches
 * go through its executor by manifest (eval/run.hpp: submitManifest,
 * runManifest).
 */

#ifndef GGA_API_SESSION_HPP
#define GGA_API_SESSION_HPP

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "api/graph_store.hpp"
#include "api/task_pool.hpp"
#include "apps/app.hpp"
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
     * Run on a copy of @p g. The copy shares g's arrays (O(1)), so the
     * plan does not depend on g's lifetime.
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
     * Worker threads of the session's executor (Session::executor). 0 =
     * the GGA_SESSION_THREADS environment default — see defaultThreads()
     * (support/parallel.hpp). The executor starts lazily on first use,
     * so purely synchronous sessions never spawn threads.
     */
    unsigned threads = 0;
};

/**
 * Facade over the apps, the graph store, and the simulator: validates
 * RunPlans and runs them (run/tryRun), and owns the fixed-size executor
 * that manifests fan out on. Stateless between runs apart from the
 * shared GraphStore and the lazily-started TaskPool; one Session may
 * serve many threads concurrently.
 */
class Session
{
  public:
    explicit Session(SessionOptions opts = {});

    const SessionOptions& options() const { return opts_; }
    GraphStore& graphs() const;

    /**
     * Why @p plan cannot run — missing app/graph/config, malformed config
     * name, an app x config mismatch, a scale that rounds to zero or is
     * too small to synthesize its preset, or SimParams that fail
     * SimParams::check — or nullopt when it is valid.
     */
    std::optional<std::string> validate(const RunPlan& plan) const;

    /**
     * Run @p plan; returns nullopt (and the reason via @p error) instead
     * of aborting when the plan is invalid or its input graph cannot be
     * built (an unreadable MatrixMarket file, a preset too small to
     * synthesize).
     */
    std::optional<RunOutcome> tryRun(const RunPlan& plan,
                                     std::string* error = nullptr);

    /** Run @p plan; fatal when tryRun fails (the message says
     *  "invalid run plan" only when validate does). */
    RunOutcome run(const RunPlan& plan);

    /**
     * Executor width: the running TaskPool's actual width once the
     * executor has started, else the resolved request (opts().threads or
     * the environment default) clamped to TaskPool::kMaxThreads. Graph
     * builds use the same width.
     */
    unsigned threads() const;

    /** The shared executor, started on first use; the destructor drains
     *  it, so every posted unit finishes. */
    TaskPool& executor();

    /** Executor telemetry; zero-valued before the executor's lazy start. */
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
