/**
 * @file
 * Xoshiro256**, the sequential generator of the frozen v1 graph baseline
 * (reference/graph.cpp). Not part of the library, which draws from
 * SplitRng (support/rng.hpp): besides the v1 generator, only the tests'
 * seeded inputs and bench/micro_substrate's delay stream use it.
 */

#ifndef GGA_REFERENCE_RNG_HPP
#define GGA_REFERENCE_RNG_HPP

#include <cstdint>

namespace gga {

/**
 * Xoshiro256** — fast, statistically strong sequential generator,
 * seeded through SplitMix64.
 */
class Xoshiro256StarStar
{
  public:
    explicit Xoshiro256StarStar(std::uint64_t seed);

    /** Next 64 raw bits. */
    std::uint64_t next();

    /** Uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Standard normal via Box-Muller (deterministic, no cached spare). */
    double nextGaussian();

  private:
    std::uint64_t s_[4];
};

} // namespace gga

#endif // GGA_REFERENCE_RNG_HPP
