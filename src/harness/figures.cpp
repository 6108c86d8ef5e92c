#include "harness/figures.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <future>

#include "api/graph_store.hpp"
#include "model/partial_tree.hpp"
#include "support/stats.hpp"

namespace gga {

namespace {

constexpr double kScaleUnitsPerOne = 1e6;

/** The restricted (no DRFrlx anywhere) configuration list of a workload. */
std::vector<SystemConfig>
restrictedConfigs(bool dynamic)
{
    if (dynamic)
        return {parseConfig("DG1"), parseConfig("DD1")};
    return {parseConfig("TG0"), parseConfig("SG1"), parseConfig("SD1")};
}

std::string
renderFig5(const FigureSet& set, const ResultSet& results, bool csv)
{
    TextTable table;
    table.setHeader({"Workload", "Config", "Norm", "Busy", "Comp", "Data",
                     "Sync", "Idle", "Cycles", "Tag"});
    TextTable summary;
    summary.setHeader({"App", "GeomeanBEST", "GeomeanPRED", "PredHitRate"});

    // Specs are in paper order (apps major, inputs minor): 6 per app.
    std::size_t next = 0;
    for (AppId app : kAllApps) {
        std::vector<double> best_norm;
        std::vector<double> pred_norm;
        std::uint32_t exact = 0;
        for (GraphPreset g : kAllGraphPresets) {
            (void)g;
            const SweepResult sweep =
                sweepFromResults(set.specs[next++], results);
            addSweepRows(table, sweep);
            table.addSeparator();
            const double base = static_cast<double>(sweep.baselineCycles);
            best_norm.push_back(sweep.bestCycles / base);
            pred_norm.push_back(sweep.predictedCycles / base);
            if (sweep.predicted == sweep.best)
                ++exact;
        }
        summary.addRow({appName(app), fmtDouble(geomean(best_norm), 3),
                        fmtDouble(geomean(pred_norm), 3),
                        std::to_string(exact) + "/6"});
    }

    return (csv ? table.toCsv() : table.toText()) +
           "\nPer-app geomean of BEST and PRED normalized times:\n" +
           (csv ? summary.toCsv() : summary.toText());
}

std::string
renderFig6(const FigureSet& set, const ResultSet& results, bool csv)
{
    TextTable table;
    table.setHeader({"Workload", "Config", "NormToSGR", "Busy", "Comp",
                     "Data", "Sync", "Idle", "Reduction"});

    std::vector<double> reductions;
    for (const SweepSpec& spec : set.specs) {
        const Workload& wl = spec.workload;
        const SystemConfig sgr = parseConfig(wl.dynamic() ? "DGR" : "SGR");
        const SweepResult sweep = sweepFromResults(spec, results);
        const ConfigResult* sgr_run = sweep.find(sgr);
        if (sweep.best == sgr)
            continue; // SGR is optimal here; not a Figure 6 case

        const double sgr_cycles = static_cast<double>(sgr_run->run.cycles);
        const double reduction = 1.0 - sweep.bestCycles / sgr_cycles;
        reductions.push_back(reduction);

        for (const SystemConfig& cfg : {sgr, sweep.best, sweep.predicted}) {
            const ConfigResult* r = sweep.find(cfg);
            std::vector<std::string> cells{wl.name(), cfg.name()};
            for (std::string& c : breakdownCells(r->run, sgr_cycles))
                cells.push_back(std::move(c));
            if (cfg == sweep.best)
                cells.push_back(fmtPct(reduction));
            table.addRow(std::move(cells));
        }
        table.addSeparator();
    }

    std::string out = csv ? table.toCsv() : table.toText();
    out += "\nCases: " + std::to_string(reductions.size()) +
           " (paper: 12); reduction over SGR: min=" +
           fmtPct(reductions.empty()
                      ? 0.0
                      : *std::min_element(reductions.begin(),
                                          reductions.end())) +
           " max=" +
           fmtPct(reductions.empty()
                      ? 0.0
                      : *std::max_element(reductions.begin(),
                                          reductions.end())) +
           " avg=" + fmtPct(mean(reductions)) +
           " (paper: 7%-87%, avg 44%)\n";
    return out;
}

std::string
renderPartial(const FigureSet& set, const ResultSet& results, bool csv)
{
    TextTable table;
    table.setHeader({"Workload", "FullBest", "NoRlxBest", "PartialPred",
                     "PredHit", "Flip", "SG1/TG0"});

    std::uint32_t flips = 0;
    std::uint32_t pred_hits = 0;
    std::uint32_t rows = 0;
    for (std::size_t i = 0; i < set.specs.size(); ++i) {
        const Workload& wl = set.specs[i].workload;
        // Full-space sweep for reference best.
        const SweepResult full = sweepFromResults(set.specs[i], results);
        // Restricted sweep.
        const SweepResult part =
            sweepFromResults(set.restricted[i], results);
        SystemConfig no_rlx_best = part.results.front().config;
        Cycles best_cycles = part.results.front().run.cycles;
        for (const ConfigResult& r : part.results) {
            // Only consider configurations in the restricted space.
            if (r.config.con == ConsistencyKind::DrfRlx)
                continue;
            if (r.run.cycles < best_cycles ||
                no_rlx_best.con == ConsistencyKind::DrfRlx) {
                best_cycles = r.run.cycles;
                no_rlx_best = r.config;
            }
        }

        const SystemConfig pred = set.partialPredicted[i];

        const bool full_best_push = full.best.prop == UpdateProp::Push;
        const bool flip =
            full_best_push && no_rlx_best.prop == UpdateProp::Pull;
        flips += flip;
        const bool hit = pred == no_rlx_best;
        pred_hits += hit;
        ++rows;

        std::string ratio = "-";
        if (!wl.dynamic()) {
            const ConfigResult* sg1 = part.find(parseConfig("SG1"));
            const ConfigResult* tg0 = part.find(parseConfig("TG0"));
            ratio = fmtDouble(
                double(sg1->run.cycles) / double(tg0->run.cycles), 2);
        }
        table.addRow({wl.name(), full.best.name(), no_rlx_best.name(),
                      pred.name(), hit ? "yes" : "no",
                      flip ? "PULL-FLIP" : "", ratio});
    }

    std::string out = csv ? table.toCsv() : table.toText();
    out += "\nPush-to-pull flips without DRFrlx: " + std::to_string(flips) +
           " (paper: 7). Partial-model hits: " + std::to_string(pred_hits) +
           "/" + std::to_string(rows) + "\n";
    return out;
}

/**
 * Shared figure builder. With @p predictions (one full-space PRED per
 * workload in paper order) the build touches no graphs; without, each
 * workload is profiled (predictWorkload) after a concurrent graph warm.
 */
FigureSet
buildFigureSet(const std::string& figure, double scale, bool full,
               const SimParams& params,
               const std::vector<SystemConfig>* predictions,
               const std::vector<SystemConfig>* partial_predictions)
{
    if (figure != "fig5" && figure != "fig6" && figure != "partial")
        throw EvalError("unknown figure '" + figure +
                        "' (expected fig5, fig6, or partial)");
    FigureSet set;
    set.figure = figure;
    // Snap to the GraphStore's 1e-6 key grid up front: the manifest meta
    // stores scale_units, and figureSetFromManifest must rebuild units
    // (whose WorkUnit::scale is compared exactly) from that alone.
    set.scale = static_cast<double>(GraphStore::quantizeScale(scale)) /
                kScaleUnitsPerOne;
    set.full = full && figure == "fig5";

    if (!predictions) {
        // Warm the input graphs concurrently before the serial spec loop
        // — buildSweepSpec profiles each workload for its prediction,
        // and the graph builds dominate that cost at large scales.
        std::vector<std::future<void>> warm;
        for (GraphPreset g : kAllGraphPresets) {
            warm.push_back(std::async(std::launch::async, [g, &set] {
                GraphStore::instance().get(g, set.scale);
            }));
        }
        for (std::future<void>& f : warm)
            f.get();
    }

    std::size_t index = 0;
    for (AppId app : kAllApps) {
        for (GraphPreset g : kAllGraphPresets) {
            const Workload wl{app, g};
            const auto configs = set.full ? allConfigs(wl.dynamic())
                                          : figureConfigs(wl.dynamic());
            // The restricted sweep reuses the same full-space PRED, so
            // one prediction per workload covers both spec lists.
            const SystemConfig pred =
                predictions ? (*predictions)[index]
                            : predictWorkload(wl, params, set.scale);
            set.specs.push_back(
                buildSweepSpec(wl, configs, params, set.scale, pred));
            if (figure == "partial") {
                set.restricted.push_back(
                    buildSweepSpec(wl, restrictedConfigs(wl.dynamic()),
                                   params, set.scale, pred));
                if (partial_predictions) {
                    set.partialPredicted.push_back(
                        (*partial_predictions)[index]);
                } else {
                    // Computed at build time, not render time: the default
                    // GpuGeometry, the workload's profile at the figure
                    // scale, no DRFrlx.
                    DesignSpaceRestriction restriction;
                    restriction.allowDrfRlx = false;
                    GpuGeometry geom;
                    const TaxonomyProfile profile = profileGraph(
                        *GraphStore::instance().get(wl.graph, set.scale),
                        geom);
                    set.partialPredicted.push_back(
                        predictPartialDesignSpace(
                            profile, algoProperties(wl.app), restriction));
                }
            }
            ++index;
        }
    }

    // Interleave full/restricted per workload; addUnique drops the units
    // the two sweeps share.
    std::vector<SweepSpec> ordered;
    for (std::size_t i = 0; i < set.specs.size(); ++i) {
        ordered.push_back(set.specs[i]);
        if (!set.restricted.empty())
            ordered.push_back(set.restricted[i]);
    }
    set.manifest = manifestForSpecs(ordered);
    set.manifest.meta["figure"] = figure;
    set.manifest.meta["scale_units"] =
        std::to_string(GraphStore::quantizeScale(set.scale));
    if (set.full)
        set.manifest.meta["full"] = "1";
    // A non-default hardware point is part of the figure's identity:
    // without it figureSetFromManifest could not rebuild the units (they
    // embed the override) and the merged results would be unrenderable.
    if (!(params == SimParams{}))
        set.manifest.meta["params"] = simParamsToJson(params).dump();
    // Record the predictions so a merge/render host can rebuild the set
    // without constructing or profiling any input graph.
    std::string preds;
    for (const SweepSpec& s : set.specs)
        preds += (preds.empty() ? "" : ",") + s.predicted.name();
    set.manifest.meta["predictions"] = std::move(preds);
    if (figure == "partial") {
        std::string ppreds;
        for (const SystemConfig& cfg : set.partialPredicted)
            ppreds += (ppreds.empty() ? "" : ",") + cfg.name();
        set.manifest.meta["partial_predictions"] = std::move(ppreds);
    }
    return set;
}

/** Parse a comma-joined config-name list from manifest meta. */
std::vector<SystemConfig>
parseConfigList(const std::string& text, const char* what)
{
    std::vector<SystemConfig> out;
    std::string name;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i < text.size() && text[i] != ',') {
            name += text[i];
            continue;
        }
        const std::optional<SystemConfig> cfg = tryParseConfig(name);
        if (!cfg)
            throw EvalError(std::string("malformed ") + what + " '" +
                            name + "' in manifest meta");
        out.push_back(*cfg);
        name.clear();
    }
    if (out.size() != kAllApps.size() * kAllGraphPresets.size())
        throw EvalError("manifest meta carries " +
                        std::to_string(out.size()) + " " + what +
                        " entries, expected one per workload");
    return out;
}

} // namespace

FigureSet
figureSet(const std::string& figure, double scale, bool full,
          const SimParams& params)
{
    return buildFigureSet(figure, scale, full, params, nullptr, nullptr);
}

FigureSet
figureSetFromManifest(const Manifest& manifest)
{
    const auto figure = manifest.meta.find("figure");
    const auto scale_units = manifest.meta.find("scale_units");
    const auto pred_meta = manifest.meta.find("predictions");
    if (figure == manifest.meta.end() ||
        scale_units == manifest.meta.end() ||
        pred_meta == manifest.meta.end())
        throw EvalError(
            "manifest carries no figure/scale_units/predictions meta; it "
            "was not generated by figureSet (gga_manifest)");
    // scale_units is written as integer micro-units (quantizeScale);
    // parse with from_chars — std::stod honours LC_NUMERIC and this
    // value must round-trip byte-identically across locales.
    std::int64_t units = 0;
    const char* ub = scale_units->second.data();
    const char* ue = ub + scale_units->second.size();
    const auto ur = std::from_chars(ub, ue, units);
    if (ur.ec != std::errc() || ur.ptr != ue)
        throw EvalError("manifest scale_units is not an integer: " +
                        scale_units->second);
    const double scale = static_cast<double>(units) / kScaleUnitsPerOne;
    const bool full = manifest.meta.count("full") != 0;

    const std::vector<SystemConfig> predictions =
        parseConfigList(pred_meta->second, "prediction");
    std::vector<SystemConfig> partial_predictions;
    if (figure->second == "partial") {
        const auto ppred_meta = manifest.meta.find("partial_predictions");
        if (ppred_meta == manifest.meta.end())
            throw EvalError(
                "partial manifest carries no partial_predictions meta");
        partial_predictions =
            parseConfigList(ppred_meta->second, "partial prediction");
    }
    SimParams params;
    if (const auto params_meta = manifest.meta.find("params");
        params_meta != manifest.meta.end())
        params = simParamsFromJson(Json::parse(params_meta->second));

    FigureSet set = buildFigureSet(
        figure->second, scale, full, params, &predictions,
        partial_predictions.empty() ? nullptr : &partial_predictions);
    // The rebuilt units must be exactly the serialized ones — a stale or
    // hand-edited manifest must not silently render mislabeled results.
    if (!(set.manifest.units() == manifest.units()))
        throw EvalError("manifest units do not match the '" +
                        figure->second +
                        "' figure rebuilt from its meta; the manifest was "
                        "edited or generated by an incompatible build");
    set.manifest.meta = manifest.meta;
    return set;
}

std::string
renderFigure(const FigureSet& set, const ResultSet& results, bool csv)
{
    if (set.figure == "fig6")
        return renderFig6(set, results, csv);
    if (set.figure == "partial")
        return renderPartial(set, results, csv);
    return renderFig5(set, results, csv);
}

std::vector<std::string>
breakdownCells(const RunResult& run, double baseline_cycles)
{
    const double total = run.breakdown.total();
    std::vector<std::string> cells;
    cells.push_back(fmtDouble(run.cycles / baseline_cycles, 3));
    cells.push_back(fmtPct(run.breakdown.busy / total));
    cells.push_back(fmtPct(run.breakdown.comp / total));
    cells.push_back(fmtPct(run.breakdown.data / total));
    cells.push_back(fmtPct(run.breakdown.sync / total));
    cells.push_back(fmtPct(run.breakdown.idle / total));
    return cells;
}

void
addSweepRows(TextTable& table, const SweepResult& sweep)
{
    const double baseline = static_cast<double>(sweep.baselineCycles);
    for (const ConfigResult& r : sweep.results) {
        std::string tag;
        if (r.config == sweep.best)
            tag += "BEST ";
        if (r.config == sweep.predicted)
            tag += "PRED";
        std::vector<std::string> cells{sweep.workload.name(),
                                       r.config.name()};
        for (std::string& c : breakdownCells(r.run, baseline))
            cells.push_back(std::move(c));
        cells.push_back(std::to_string(r.run.cycles));
        cells.push_back(tag);
        table.addRow(std::move(cells));
    }
}

double
geomeanNormalized(const std::vector<double>& normalized)
{
    return geomean(normalized);
}

} // namespace gga
