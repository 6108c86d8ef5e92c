#include "graph/presets.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "support/log.hpp"

namespace gga {

const std::string&
presetName(GraphPreset p)
{
    static const std::string names[] = {"AMZ", "DCT", "EML",
                                        "OLS", "RAJ", "WNG"};
    return names[static_cast<int>(p)];
}

std::optional<GraphPreset>
presetFromName(std::string_view name)
{
    for (GraphPreset p : kAllGraphPresets) {
        if (presetName(p) == name)
            return p;
    }
    return std::nullopt;
}

const PaperGraphStats&
paperStats(GraphPreset p)
{
    // Verbatim rows of the paper's Table II.
    static const PaperGraphStats stats[] = {
        // V        E        maxD  avgD    stdD    volKB     ANL    ANR     reuse  imb    classes
        {410236, 6713648, 2770, 16.265, 16.298, 1855.178, 2.616, 13.749, 0.160, 0.000, 'H', 'M', 'L'},
        {52652, 178076, 38, 3.382, 4.475, 60.078, 1.215, 2.167, 0.359, 0.083, 'M', 'M', 'M'},
        {265214, 837912, 7636, 3.159, 42.490, 287.272, 0.167, 2.992, 0.053, 1.000, 'H', 'L', 'H'},
        {88263, 683186, 10, 7.740, 2.411, 200.898, 3.446, 4.295, 0.445, 0.000, 'M', 'H', 'L'},
        {20640, 163178, 3469, 7.906, 32.954, 47.869, 4.697, 3.209, 0.594, 0.617, 'L', 'H', 'H'},
        {61032, 243088, 4, 3.919, 0.278, 79.458, 0.020, 3.899, 0.003, 0.000, 'M', 'L', 'L'},
    };
    return stats[static_cast<int>(p)];
}

GenSpec
presetSpec(GraphPreset p)
{
    GenSpec s;
    s.name = presetName(p);
    const PaperGraphStats& t = paperStats(p);
    s.numVertices = t.vertices;
    s.numDirectedEdges = t.edges;
    s.seed = 0xabcd0000ull + static_cast<std::uint64_t>(p);

    switch (p) {
      case GraphPreset::Amz:
        // Moderate lognormal tail (CV ~ 1), hubs clustered by the degree
        // sort, ~16% intra-block edges.
        s.dist = DegreeDist::LogNormal;
        s.p1 = std::log(16.3) - 0.5 * 0.833 * 0.833;
        s.p2 = 0.833;
        s.maxDegree = 2770;
        s.forceTopDegrees = true;
        s.fracIntraBlock = 0.21;
        s.fracBand = 0.0;
        s.backbone = true;
        break;
      case GraphPreset::Dct:
        // Small graph, mild tail, ~36% intra-block, a few scattered hubs
        // for medium imbalance.
        s.dist = DegreeDist::LogNormal;
        s.p1 = std::log(3.38) - 0.5 * 1.0;
        s.p2 = 1.0;
        s.maxDegree = 38;
        s.fracIntraBlock = 0.80;
        s.fracBand = 0.0;
        s.scatterHubCount = 30;
        s.hubPoolSize = 64;
        s.backbone = true;
        break;
      case GraphPreset::Eml:
        // Extreme power law (huge stddev), fully random vertex order so
        // hubs land in nearly every thread block, ~5% local edges.
        s.dist = DegreeDist::PowerLaw;
        s.p1 = 2.5;
        s.p2 = 1.0;
        s.maxDegree = 7636;
        s.forceTopDegrees = true;
        s.fracIntraBlock = 0.14;
        s.fracBand = 0.0;
        s.fullShuffle = true;
        s.backbone = true;
        break;
      case GraphPreset::Ols:
        // FEM-style: narrow degree spread capped at 10, heavy intra-block
        // locality plus a banded component.
        s.dist = DegreeDist::LogNormal;
        s.p1 = std::log(7.9) - 0.5 * 0.09;
        s.p2 = 0.30;
        s.maxDegree = 10;
        s.fracIntraBlock = 0.62;
        s.fracBand = 0.25;
        s.bandWidth = 180;
        s.backbone = true;
        s.backboneBand = 1500;
        break;
      case GraphPreset::Raj:
        // Circuit-like: heavy tail and high locality; a tuned number of
        // hubs scattered into random thread blocks yields the ~0.6
        // imbalance of the paper.
        s.dist = DegreeDist::PowerLaw;
        s.p1 = 2.35;
        s.p2 = 2.0;
        s.maxDegree = 3469;
        s.forceTopDegrees = true;
        s.fracIntraBlock = 0.85;
        s.fracBand = 0.0;
        s.scatterHubCount = 78;
        s.hubPoolSize = 400;
        s.backbone = true;
        break;
      case GraphPreset::Wng:
        // 247x247 4-neighbour mesh + 23 pendant vertices for the exact
        // vertex count; labels permuted so neighbours share a thread block
        // only by accident.
        s.topology = Topology::Grid2d;
        s.gridRows = 247;
        s.gridCols = 247;
        s.permuteLabels = true;
        break;
    }
    return s;
}

GenSpec
presetSpecScaled(GraphPreset p, double scale)
{
    GGA_ASSERT(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    GenSpec s = presetSpec(p);
    // The full-scale spec must come out exactly as presetSpec wrote it
    // (not rounded through the scaling arithmetic): full-scale graphs
    // and their snapshot identities key off it.
    if (scale >= 1.0)
        return s;
    const auto v = static_cast<VertexId>(
        std::max<double>(64.0, std::floor(s.numVertices * scale)));
    auto e = static_cast<EdgeId>(s.numDirectedEdges * scale);
    if (e % 2)
        ++e;
    // Keep the edge budget feasible for the shrunken vertex set.
    const std::uint64_t cap =
        static_cast<std::uint64_t>(v) * (v - 1) / 2;
    e = static_cast<EdgeId>(std::min<std::uint64_t>(e / 2, cap)) * 2;
    s.numVertices = v;
    s.numDirectedEdges = std::max<EdgeId>(e, 2);
    if (s.topology == Topology::Grid2d) {
        const auto side = static_cast<std::uint32_t>(std::sqrt(double(v)));
        s.gridRows = std::max(2u, side);
        s.gridCols = std::max(2u, side);
        GGA_ASSERT(static_cast<std::uint64_t>(s.gridRows) * s.gridCols <= v,
                   "scaled grid exceeds vertex budget");
    }
    s.scatterHubCount = static_cast<std::uint32_t>(
        std::ceil(s.scatterHubCount * scale));
    s.hubPoolSize = std::max<std::uint32_t>(
        16, static_cast<std::uint32_t>(s.hubPoolSize * scale));
    return s;
}

CsrGraph
buildPresetScaled(GraphPreset p, double scale, unsigned build_threads)
{
    return generateGraph(presetSpecScaled(p, scale), build_threads);
}

} // namespace gga
