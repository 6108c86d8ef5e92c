/**
 * @file
 * The paper's graph-structure taxonomy metrics (Sec. III-A):
 * Volume (Eq. 1), Reuse via ANL/ANR (Eqs. 2-6), Imbalance (Eq. 7).
 * They read the GPU geometry from SimParams' Table IV constants; only
 * the Volume class takes an L1 size, the one the ablations vary.
 */

#ifndef GGA_TAXONOMY_METRICS_HPP
#define GGA_TAXONOMY_METRICS_HPP

#include <cstdint>

#include "graph/csr.hpp"
#include "sim/params.hpp"

namespace gga {

/** Discretized metric level. */
enum class Level
{
    Low,
    Medium,
    High,
};

/** 'L' / 'M' / 'H' for table output. */
char levelChar(Level l);

/** Classification thresholds (paper Sec. V-A, empirically chosen). */
struct TaxonomyThresholds
{
    /** Volume is Low below this multiple of the L1 capacity... */
    static constexpr double volumeLowL1Multiple = 1.5;
    /** ...and High above l2SizeKiB / numSms (each SM's fair share of L2). */

    static constexpr double reuseLow = 0.15;
    static constexpr double reuseHigh = 0.40;

    static constexpr double imbalanceLow = 0.05;
    static constexpr double imbalanceHigh = 0.25;

    /** k-means max-degree centroid gap marking a thread block imbalanced. */
    static constexpr double kmeansCentroidGap = 10.0;
};

/**
 * Eq. 1: Volume(G) = (|V| + |E|) / |SM|, in KB of 4-byte elements. A
 * proxy for the average per-SM working-set size.
 */
double computeVolumeKb(const CsrGraph& g);

/** ANL/ANR/Reuse bundle (Eqs. 4, 5, 6). */
struct ReuseMetrics
{
    double anl = 0.0;   ///< average local (same thread block) neighbors
    double anr = 0.0;   ///< average remote neighbors
    double reuse = 0.0; ///< Eq. 6, in [0, 1]
};

/**
 * Eqs. 2-6: average numbers of thread-block-local and -remote neighbors,
 * combined into the [0, 1] Reuse score (1 = all edges local).
 */
ReuseMetrics computeReuse(const CsrGraph& g);

/**
 * Eq. 7: fraction of thread blocks whose per-warp max-degree 2-means
 * clustering shows a centroid gap above the threshold.
 */
double computeImbalance(const CsrGraph& g);

/** Discretize Volume against an L1 of @p l1KiB (see TaxonomyThresholds). */
Level classifyVolume(double volume_kb, std::uint32_t l1KiB);

/** Discretize Reuse. */
Level classifyReuse(double reuse);

/** Discretize Imbalance. */
Level classifyImbalance(double imbalance);

} // namespace gga

#endif // GGA_TAXONOMY_METRICS_HPP
