#include "harness/sweep.hpp"

#include <algorithm>
#include <utility>

#include "api/graph_store.hpp"
#include "support/log.hpp"

namespace gga {

namespace {

double
resolveScale(double scale)
{
    return scale > 0.0 ? scale : evaluationScale();
}

} // namespace

const ConfigResult*
SweepResult::find(const SystemConfig& cfg) const
{
    for (const ConfigResult& r : results) {
        if (r.config == cfg)
            return &r;
    }
    return nullptr;
}

SystemConfig
baselineConfig(const Workload& workload)
{
    return workload.dynamic() ? parseConfig("DG1") : parseConfig("TG0");
}

SystemConfig
predictWorkload(const Workload& workload, const SimParams& params,
                double scale)
{
    GpuGeometry geom;
    geom.numSms = params.numSms;
    geom.threadBlockSize = params.threadBlockSize;
    geom.warpSize = params.warpSize;
    geom.l1KiB = params.l1SizeKiB;
    geom.l2KiB = params.l2SizeKiB;
    // Resolve through the GraphStore so the handle is released after
    // profiling and eviction stays effective.
    const GraphStore::GraphPtr graph =
        GraphStore::instance().get(workload.graph, resolveScale(scale));
    const TaxonomyProfile profile = profileGraph(*graph, geom);
    return predictFullDesignSpace(profile, algoProperties(workload.app));
}

SweepSpec
buildSweepSpec(const Workload& workload, std::vector<SystemConfig> configs,
               const SimParams& params, double scale)
{
    return buildSweepSpec(workload, std::move(configs), params, scale,
                          predictWorkload(workload, params, scale));
}

SweepSpec
buildSweepSpec(const Workload& workload, std::vector<SystemConfig> configs,
               const SimParams& params, double scale,
               const SystemConfig& predicted)
{
    SweepSpec spec;
    spec.workload = workload;

    const SystemConfig baseline = baselineConfig(workload);
    if (std::find(configs.begin(), configs.end(), baseline) == configs.end())
        configs.push_back(baseline);
    spec.predicted = predicted;
    if (std::find(configs.begin(), configs.end(), spec.predicted) ==
        configs.end())
        configs.push_back(spec.predicted);

    // Sweeps never collect functional outputs (timing/counters only), and
    // they omit the params override when it is just the Table IV default
    // so the unit keys stay canonical across callers.
    spec.units.reserve(configs.size());
    for (const SystemConfig& cfg : configs) {
        WorkUnit u;
        u.app = workload.app;
        u.preset = workload.graph;
        u.scale = scale;
        u.config = cfg;
        if (params != SimParams{})
            u.params = params;
        spec.units.push_back(std::move(u));
    }
    spec.configs = std::move(configs);
    return spec;
}

SweepResult
sweepFromResults(const SweepSpec& spec, const ResultSet& results)
{
    GGA_ASSERT(spec.units.size() == spec.configs.size() &&
                   !spec.configs.empty(),
               "malformed sweep spec for ", spec.workload.name());

    SweepResult sweep;
    sweep.workload = spec.workload;
    sweep.predicted = spec.predicted;

    // Slot i holds configs[i]'s result, so the result ordering (and the
    // first-minimum BEST tie-break below) is identical no matter where —
    // or across how many shards — the runs executed.
    sweep.results.reserve(spec.configs.size());
    for (std::size_t i = 0; i < spec.configs.size(); ++i) {
        sweep.results.push_back(
            ConfigResult{spec.configs[i], results.at(spec.units[i].key()).run});
    }

    const ConfigResult* best = &sweep.results.front();
    for (const ConfigResult& r : sweep.results) {
        if (r.run.cycles < best->run.cycles)
            best = &r;
    }
    sweep.best = best->config;
    sweep.bestCycles = best->run.cycles;
    sweep.predictedCycles = sweep.find(sweep.predicted)->run.cycles;
    sweep.baselineCycles =
        sweep.find(baselineConfig(spec.workload))->run.cycles;
    return sweep;
}

Manifest
manifestForSpecs(const std::vector<SweepSpec>& specs)
{
    Manifest manifest;
    for (const SweepSpec& spec : specs) {
        // addUnique: overlapping sweeps (e.g. the partial-design-space
        // full and restricted sweeps of one workload) share their common
        // units instead of simulating them twice.
        for (const WorkUnit& u : spec.units)
            manifest.addUnique(u);
    }
    return manifest;
}

PendingSweep
submitSweep(Session& session, const Workload& workload,
            std::vector<SystemConfig> configs,
            std::optional<SimParams> params, double scale)
{
    // Unset knobs defer to the session — the same defaults every plain
    // run() on this session uses — so one Session never mixes scales or
    // hardware parameters between sweeps and direct runs.
    const double graph_scale =
        scale > 0.0 ? scale : session.options().scale;
    const SimParams run_params = params.value_or(session.options().params);

    PendingSweep pending;
    pending.spec_ =
        buildSweepSpec(workload, std::move(configs), run_params, graph_scale);
    Manifest manifest;
    // addUnique: a duplicated configuration in the caller's list is not
    // an error; the single shared unit fans back out to one result slot
    // per list entry in sweepFromResults.
    for (const WorkUnit& u : pending.spec_.units)
        manifest.addUnique(u);
    pending.pending_ = submitManifest(session, manifest);
    return pending;
}

SweepResult
PendingSweep::collect()
{
    GGA_ASSERT(pending_.size() > 0 && !spec_.units.empty(),
               "PendingSweep collected twice or never submitted");
    try {
        const ResultSet results = pending_.collect();
        return sweepFromResults(spec_, results);
    } catch (const EvalError& err) {
        GGA_FATAL("sweep of ", spec_.workload.name(), ": ", err.what());
    }
}

} // namespace gga
