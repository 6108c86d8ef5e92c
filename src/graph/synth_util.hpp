/**
 * @file
 * Draw and pair-packing helpers shared by the current generator
 * (graph/generator.cpp) and the frozen v1 baseline (reference/graph.cpp).
 * A change here moves the baseline too; test_graph's v1 golden hashes
 * catch that.
 */

#ifndef GGA_GRAPH_SYNTH_UTIL_HPP
#define GGA_GRAPH_SYNTH_UTIL_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "graph/generator.hpp"
#include "support/log.hpp"
#include "support/types.hpp"

namespace gga::synth {

/** Canonical key for an undirected pair. */
inline std::uint64_t
pairKey(VertexId a, VertexId b)
{
    const VertexId lo = std::min(a, b);
    const VertexId hi = std::max(a, b);
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

inline VertexId
keyLo(std::uint64_t key)
{
    return static_cast<VertexId>(key >> 32);
}

inline VertexId
keyHi(std::uint64_t key)
{
    return static_cast<VertexId>(key & 0xffffffffu);
}

/** Draw one target degree from the spec's distribution. */
template <typename Rng>
double
drawDegree(const GenSpec& spec, Rng& rng)
{
    switch (spec.dist) {
      case DegreeDist::Regular:
        return spec.p1;
      case DegreeDist::LogNormal:
        return std::exp(spec.p1 + spec.p2 * rng.nextGaussian());
      case DegreeDist::PowerLaw: {
        // Inverse-CDF sampling of P(d) ~ d^-alpha for d >= dmin.
        const double alpha = spec.p1;
        const double dmin = spec.p2;
        const double u = rng.nextDouble();
        return dmin * std::pow(1.0 - u, -1.0 / (alpha - 1.0));
      }
    }
    GGA_PANIC("unknown degree distribution");
}

/** Stochastic rounding: floor(x) + Bernoulli(frac(x)). */
template <typename Rng>
std::uint32_t
stochRound(double x, Rng& rng)
{
    if (x <= 0.0)
        return 0;
    const double fl = std::floor(x);
    const double frac = x - fl;
    return static_cast<std::uint32_t>(fl) + (rng.nextDouble() < frac ? 1 : 0);
}

} // namespace gga::synth

#endif // GGA_GRAPH_SYNTH_UTIL_HPP
