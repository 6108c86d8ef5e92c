/**
 * @file
 * The six input graphs of the paper's Table II, as synthetic presets.
 *
 * Each preset targets the published |V|, |E| exactly and the degree/locality
 * structure approximately, such that the Table II taxonomy *classes*
 * (Volume, Reuse, Imbalance in {L, M, H}) are reproduced.
 */

#ifndef GGA_GRAPH_PRESETS_HPP
#define GGA_GRAPH_PRESETS_HPP

#include <array>
#include <optional>
#include <string>
#include <string_view>

#include "graph/csr.hpp"
#include "graph/generator.hpp"

namespace gga {

/** The six inputs (paper Table II). */
enum class GraphPreset
{
    Amz, ///< amazon-like co-purchase graph: big, moderate tail, clustered hubs
    Dct, ///< small dictionary-like graph: mild tail, medium locality
    Eml, ///< email-like graph: extreme power law, scattered hubs
    Ols, ///< FEM-like banded graph: narrow degrees, high locality
    Raj, ///< circuit-like graph: heavy tail plus high locality
    Wng, ///< wing-like 2D mesh with permuted labels: regular, no locality
};

inline constexpr std::array<GraphPreset, 6> kAllGraphPresets = {
    GraphPreset::Amz, GraphPreset::Dct, GraphPreset::Eml,
    GraphPreset::Ols, GraphPreset::Raj, GraphPreset::Wng,
};

/** Short uppercase name as used in the paper ("AMZ", ...). */
const std::string& presetName(GraphPreset p);

/** The preset whose presetName is @p name (case-sensitive), or nullopt. */
std::optional<GraphPreset> presetFromName(std::string_view name);

/** Published Table II statistics for comparison in tests and benches. */
struct PaperGraphStats
{
    VertexId vertices;
    EdgeId edges;
    std::uint32_t maxDegree;
    double avgDegree;
    double stddevDegree;
    double volumeKb;
    double anl;
    double anr;
    double reuse;
    double imbalance;
    char volumeClass;    // 'L' | 'M' | 'H'
    char reuseClass;     // 'L' | 'M' | 'H'
    char imbalanceClass; // 'L' | 'M' | 'H'
};

/** Paper-published row of Table II for @p p. */
const PaperGraphStats& paperStats(GraphPreset p);

/** Generation recipe for @p p. */
GenSpec presetSpec(GraphPreset p);

/**
 * Generation recipe for @p p at @p scale in (0, 1]: vertices and edges
 * multiplied by the scale (minimum 64 vertices), hub knobs rescaled,
 * grid presets re-squared. At scale 1.0 this is exactly presetSpec(p) —
 * the identity snapshot files and full-scale builds key off.
 */
GenSpec presetSpecScaled(GraphPreset p, double scale);

/**
 * Build a scaled variant: generateGraph(presetSpecScaled(p, scale)).
 * Not memoized; bit-identical at every @p build_threads value
 * (0 = defaultThreads()).
 */
CsrGraph buildPresetScaled(GraphPreset p, double scale,
                           unsigned build_threads = 0);

} // namespace gga

#endif // GGA_GRAPH_PRESETS_HPP
