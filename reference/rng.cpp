#include "reference/rng.hpp"

#include <cmath>

#include "support/rng.hpp"

namespace gga {

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed)
{
    SplitMix64 sm(seed);
    for (auto& s : s_)
        s = sm.next();
}

namespace {

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t
Xoshiro256StarStar::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t
Xoshiro256StarStar::nextBounded(std::uint64_t bound)
{
    // Lemire-style rejection-free bounded draw is overkill here; plain
    // modulo bias is negligible for graph-synthesis bounds << 2^64.
    return next() % bound;
}

double
Xoshiro256StarStar::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Xoshiro256StarStar::nextGaussian()
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
