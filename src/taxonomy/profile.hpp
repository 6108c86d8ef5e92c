/**
 * @file
 * TaxonomyProfile: the bundled graph-structure inputs to the
 * specialization model.
 */

#ifndef GGA_TAXONOMY_PROFILE_HPP
#define GGA_TAXONOMY_PROFILE_HPP

#include "taxonomy/metrics.hpp"

namespace gga {

/** All graph-structure metrics plus their discretized classes. */
struct TaxonomyProfile
{
    double volumeKb = 0.0;
    Level volume = Level::Low;

    double anl = 0.0;
    double anr = 0.0;
    double reuse = 0.0;
    Level reuseLevel = Level::Low;

    double imbalance = 0.0;
    Level imbalanceLevel = Level::Low;
};

/**
 * Compute the full taxonomy profile for @p g at hardware point @p params
 * (its L1 size; the rest of the geometry is Table IV). This is the
 * input-side half of the specialization model; the algorithm-side half
 * is AlgoProperties.
 */
TaxonomyProfile profileGraph(const CsrGraph& g,
                             const SimParams& params = SimParams{});

} // namespace gga

#endif // GGA_TAXONOMY_PROFILE_HPP
