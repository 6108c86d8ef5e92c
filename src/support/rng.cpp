#include "support/rng.hpp"

#include <cmath>

namespace gga {

std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return hashMix64(a * 0x9e3779b97f4a7c15ull + b + 0x7f4a7c159e3779b9ull);
}

double
SplitRng::nextGaussian()
{
    // Box-Muller; draw until u1 is nonzero to keep log() finite.
    double u1 = 0.0;
    do {
        u1 = nextDouble();
    } while (u1 <= 0.0);
    const double u2 = nextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    return r * std::cos(2.0 * M_PI * u2);
}

} // namespace gga
