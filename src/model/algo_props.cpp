#include "model/algo_props.hpp"

namespace gga {

const AlgoProperties&
algoProperties(AppId app)
{
    // Verbatim Table III. Determined in the paper by manual inspection of
    // the kernels; our kernel implementations mirror these structures.
    static const AlgoProperties props[] = {
        // PR: no predicates (symmetric control); rank/degree of the source
        // is hoisted by push (source information).
        {TraversalKind::Static, Preference::Symmetric, Preference::Source},
        // SSSP: frontier predicate on the source; dist[s] hoisted by push.
        {TraversalKind::Static, Preference::Source, Preference::Source},
        // MIS: both sides predicate on "undecided"; both sides read
        // priorities.
        {TraversalKind::Static, Preference::Symmetric, Preference::Symmetric},
        // CLR: both sides predicate on "uncolored"; pull hoists the
        // target's accumulating state.
        {TraversalKind::Static, Preference::Symmetric, Preference::Target},
        // BC: frontier predicate on the source; sigma/delta read both sides.
        {TraversalKind::Static, Preference::Source, Preference::Symmetric},
        // CC: dynamic pointer-chasing traversal; no push/pull asymmetry.
        {TraversalKind::Dynamic, Preference::NotApplicable,
         Preference::NotApplicable},
    };
    return props[static_cast<int>(app)];
}

const std::string&
appName(AppId app)
{
    static const std::string names[] = {"PR", "SSSP", "MIS",
                                        "CLR", "BC", "CC"};
    return names[static_cast<int>(app)];
}

std::optional<AppId>
appFromName(std::string_view name)
{
    for (AppId app : kAllApps) {
        if (appName(app) == name)
            return app;
    }
    return std::nullopt;
}

bool
acceptsConfig(AppId app, const SystemConfig& cfg)
{
    const bool dynamic =
        algoProperties(app).traversal == TraversalKind::Dynamic;
    return dynamic == (cfg.prop == UpdateProp::PushPull);
}

const char*
configRequirement(AppId app)
{
    return algoProperties(app).traversal == TraversalKind::Dynamic
               ? "has a dynamic traversal and requires PushPull"
               : "has a static traversal and requires Push or Pull";
}

const std::string&
traversalLabel(TraversalKind t)
{
    static const std::string labels[] = {"Static", "Dynamic"};
    return labels[static_cast<int>(t)];
}

const std::string&
preferenceLabel(Preference p)
{
    static const std::string labels[] = {"Source", "Target", "Symmetric",
                                         "-"};
    return labels[static_cast<int>(p)];
}

} // namespace gga
