#include "taxonomy/profile.hpp"

namespace gga {

TaxonomyProfile
profileGraph(const CsrGraph& g, const SimParams& params)
{
    TaxonomyProfile p;
    p.volumeKb = computeVolumeKb(g);
    p.volume = classifyVolume(p.volumeKb, params.l1SizeKiB);

    const ReuseMetrics rm = computeReuse(g);
    p.anl = rm.anl;
    p.anr = rm.anr;
    p.reuse = rm.reuse;
    p.reuseLevel = classifyReuse(rm.reuse);

    p.imbalance = computeImbalance(g);
    p.imbalanceLevel = classifyImbalance(p.imbalance);
    return p;
}

} // namespace gga
