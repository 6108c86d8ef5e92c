/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic choices in GGA-Sim (graph generation, priorities) flow
 * through these generators with fixed seeds so that every simulation is
 * bit-reproducible across runs and platforms.
 */

#ifndef GGA_SUPPORT_RNG_HPP
#define GGA_SUPPORT_RNG_HPP

#include <cstddef>
#include <cstdint>

namespace gga {

/**
 * SplitMix64: tiny, high-quality 64-bit mixer. Used directly for hashing
 * and to seed Xoshiro256StarStar.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    /** Next 64 raw bits. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state_;
};

/**
 * Stateless 64-bit mix of a value; used for deterministic per-edge data
 * and as the hash of the simulator's hot-path tables. Inline: it runs on
 * every cache-set, bank, and FlatMap probe.
 */
inline std::uint64_t
hashMix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

/** Combine two ids into one deterministic hash (order-sensitive). */
std::uint64_t hashCombine(std::uint64_t a, std::uint64_t b);

/** FNV-1a offset basis: the seed for an unchained fnv1a() call. */
inline constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ull;

/**
 * FNV-1a over a byte range, chainable via @p seed. Platform-independent
 * (byte-order sensitive only through the caller's data layout); used for
 * evaluation-pipeline content digests — work-unit params hashes and
 * functional-output summaries — that must agree across hosts.
 */
inline std::uint64_t
fnv1a(const void* data, std::size_t bytes, std::uint64_t seed = kFnv1aBasis)
{
    const unsigned char* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/**
 * Xoshiro256** — fast, statistically strong sequential generator. It
 * drives the frozen v1 graph baseline (reference/graph.cpp) and test
 * inputs; the current generator draws from SplitRng instead.
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

/**
 * Counter-based splittable generator: every draw is a pure function of
 * (seed, stream, counter), so any (vertex, block, phase) of a parallel
 * computation can own an independent reproducible stream with no
 * sequential dependence on any other stream. Draw i of
 * SplitRng(s, t) equals draw 0 of SplitRng(s, t, i).
 *
 * The stream key is derived with hashCombine so structured stream ids
 * (e.g. `(phase << 32) | vertex`) land on unrelated sequences; each
 * output applies the SplitMix64 finalizer to key + counter * gamma,
 * i.e. the stream IS a SplitMix64 sequence starting at the key.
 */
class SplitRng
{
  public:
    SplitRng(std::uint64_t seed, std::uint64_t stream,
             std::uint64_t counter = 0)
        : key_(hashCombine(seed, stream)), counter_(counter)
    {
    }

    /** Next 64 raw bits. */
    std::uint64_t
    next()
    {
        std::uint64_t z = key_ + (counter_++) * 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        // Same modulo policy as Xoshiro256StarStar::nextBounded.
        return next() % bound;
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Standard normal via Box-Muller (deterministic, no cached spare). */
    double nextGaussian();

    /** Draws consumed so far (plus the constructor's starting offset). */
    std::uint64_t
    counter() const
    {
        return counter_;
    }

  private:
    std::uint64_t key_;
    std::uint64_t counter_;
};

} // namespace gga

#endif // GGA_SUPPORT_RNG_HPP
