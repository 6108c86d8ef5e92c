#include "taxonomy/metrics.hpp"

#include <algorithm>
#include <vector>

#include "support/log.hpp"
#include "taxonomy/kmeans.hpp"

namespace gga {

char
levelChar(Level l)
{
    switch (l) {
      case Level::Low:
        return 'L';
      case Level::Medium:
        return 'M';
      case Level::High:
        return 'H';
    }
    return '?';
}

double
computeVolumeKb(const CsrGraph& g)
{
    const double elems = static_cast<double>(g.numVertices()) +
                         static_cast<double>(g.numEdges());
    return elems * 4 / SimParams::numSms / 1024.0;
}

ReuseMetrics
computeReuse(const CsrGraph& g)
{
    ReuseMetrics m;
    const VertexId n = g.numVertices();
    if (n == 0 || g.numEdges() == 0)
        return m;

    // Eqs. 2-5: an edge endpoint is "local" when source and target fall in
    // the same thread block (vertex-per-thread mapping).
    std::uint64_t local = 0;
    std::uint64_t remote = 0;
    const std::uint32_t tb = SimParams::threadBlockSize;
    for (VertexId v = 0; v < n; ++v) {
        const VertexId block = v / tb;
        for (VertexId nb : g.neighbors(v)) {
            if (nb == v)
                continue; // TBL/TBR are 0 for self edges by definition
            if (nb / tb == block)
                ++local;
            else
                ++remote;
        }
    }
    m.anl = static_cast<double>(local) / n;
    m.anr = static_cast<double>(remote) / n;

    // Eq. 6: normalize the local-vs-remote skew by the average degree and
    // shift into [0, 1].
    const double avg_deg = g.avgDegree();
    m.reuse = 0.5 * (1.0 + (m.anl - m.anr) / avg_deg);
    m.reuse = std::clamp(m.reuse, 0.0, 1.0);
    return m;
}

double
computeImbalance(const CsrGraph& g)
{
    const VertexId n = g.numVertices();
    if (n == 0)
        return 0.0;
    const std::uint32_t tb_size = SimParams::threadBlockSize;
    const std::uint32_t warp = SimParams::warpSize;
    const VertexId num_tbs = (n + tb_size - 1) / tb_size;

    VertexId marked = 0;
    std::vector<double> warp_max;
    for (VertexId tb = 0; tb < num_tbs; ++tb) {
        warp_max.clear();
        const VertexId tb_begin = tb * tb_size;
        const VertexId tb_end = std::min<VertexId>(tb_begin + tb_size, n);
        for (VertexId w = tb_begin; w < tb_end; w += warp) {
            const VertexId w_end = std::min<VertexId>(w + warp, tb_end);
            std::uint32_t max_deg = 0;
            for (VertexId v = w; v < w_end; ++v)
                max_deg = std::max(max_deg, g.degree(v));
            warp_max.push_back(static_cast<double>(max_deg));
        }
        const KMeans1dResult km = kmeans1d2(warp_max);
        if (km.centroidGap > TaxonomyThresholds::kmeansCentroidGap)
            ++marked;
    }
    return static_cast<double>(marked) / static_cast<double>(num_tbs);
}

Level
classifyVolume(double volume_kb, std::uint32_t l1KiB)
{
    const double low_cut = TaxonomyThresholds::volumeLowL1Multiple * l1KiB;
    const double high_cut = static_cast<double>(SimParams::l2SizeKiB) /
                            static_cast<double>(SimParams::numSms);
    if (volume_kb < low_cut)
        return Level::Low;
    if (volume_kb > high_cut)
        return Level::High;
    return Level::Medium;
}

Level
classifyReuse(double reuse)
{
    if (reuse < TaxonomyThresholds::reuseLow)
        return Level::Low;
    if (reuse > TaxonomyThresholds::reuseHigh)
        return Level::High;
    return Level::Medium;
}

Level
classifyImbalance(double imbalance)
{
    if (imbalance < TaxonomyThresholds::imbalanceLow)
        return Level::Low;
    if (imbalance > TaxonomyThresholds::imbalanceHigh)
        return Level::High;
    return Level::Medium;
}

} // namespace gga
