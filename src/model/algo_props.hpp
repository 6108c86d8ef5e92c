/**
 * @file
 * Algorithmic properties of the six applications (paper Table III):
 * traversal (static/dynamic), algorithmic control, algorithmic information.
 */

#ifndef GGA_MODEL_ALGO_PROPS_HPP
#define GGA_MODEL_ALGO_PROPS_HPP

#include <array>
#include <optional>
#include <string>
#include <string_view>

#include "model/config.hpp"

namespace gga {

/** The six applications evaluated by the paper. */
enum class AppId
{
    Pr,   ///< PageRank
    Sssp, ///< Single-Source Shortest Path
    Mis,  ///< Maximal Independent Set
    Clr,  ///< Graph Coloring
    Bc,   ///< Betweenness Centrality
    Cc,   ///< Connected Components (dynamic traversal)
};

inline constexpr std::array<AppId, 6> kAllApps = {
    AppId::Pr, AppId::Sssp, AppId::Mis, AppId::Clr, AppId::Bc, AppId::Cc,
};

/** Where information propagates (Sec. III-B1). */
enum class TraversalKind
{
    Static,  ///< updates flow along input-graph edges
    Dynamic, ///< source/target computed at run time (e.g. transitive closure)
};

/**
 * Which side a predicate (control) or property access (information) favors
 * (Sec. III-B2/3). NotApplicable marks dynamic-traversal apps whose racy
 * push+pull body has no push/pull asymmetry to exploit.
 */
enum class Preference
{
    Source,
    Target,
    Symmetric,
    NotApplicable,
};

/** Table III row. */
struct AlgoProperties
{
    TraversalKind traversal = TraversalKind::Static;
    Preference control = Preference::Symmetric;
    Preference information = Preference::Symmetric;
};

/** Properties of @p app (values of the paper's Table III). */
const AlgoProperties& algoProperties(AppId app);

/** Short uppercase name ("PR", "SSSP", ...). */
const std::string& appName(AppId app);

/** The app whose appName is @p name (case-sensitive), or nullopt. */
std::optional<AppId> appFromName(std::string_view name);

/**
 * Does @p app accept @p cfg? Table III's traversal column decides: a
 * dynamic traversal requires PushPull, a static one Push or Pull.
 */
bool acceptsConfig(AppId app, const SystemConfig& cfg);

/** acceptsConfig's rule in words, for validation messages. */
const char* configRequirement(AppId app);

/** Human-readable labels for table output. */
const std::string& traversalLabel(TraversalKind t);
const std::string& preferenceLabel(Preference p);

} // namespace gga

#endif // GGA_MODEL_ALGO_PROPS_HPP
