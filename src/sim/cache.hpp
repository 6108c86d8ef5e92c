/**
 * @file
 * Generic set-associative, LRU tag array. Shared by the per-SM L1s and the
 * L2 banks; coherence semantics live in the controllers, this class only
 * tracks line presence and state.
 *
 * Layout: one packed `line | state` tag word per way (lines are aligned,
 * so the state fits in the low bits) and a parallel array of LRU stamps.
 * A lookup scans only the set's tag words — one cache line for an 8-way
 * L1 set, two for a 16-way L2 set — and touches a stamp only on a hit or
 * when choosing a victim. Sets are indexed by shift and mask; a set count
 * that is not a power of two falls back to an exact modulo.
 *
 * One probe per access: probe() hashes the line once and returns its set
 * with the matching way, and a controller that misses hands that probe
 * to insertAt(), which picks the victim in the same set without hashing
 * or scanning for the line again.
 */

#ifndef GGA_SIM_CACHE_HPP
#define GGA_SIM_CACHE_HPP

#include <cstdint>
#include <vector>

#include "sim/params.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace gga {

/** State of a cached line. Meaning depends on the owning controller. */
enum class LineState : std::uint8_t
{
    Invalid = 0,
    Valid,  ///< clean copy (GPU L1 / DeNovo non-owned / L2 clean)
    Dirty,  ///< modified, unflushed (GPU L1 write-combining / L2 vs DRAM)
    Owned,  ///< DeNovo L1 registered ownership (implies writable)
};

/** Set-associative LRU tag array. All addresses must be line-aligned. */
class SetAssocCache
{
  public:
    /** Way handle meaning "line not present". */
    static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};

    /** @p size_bytes of SimParams::lineBytes lines in sets of @p assoc. */
    SetAssocCache(std::uint32_t size_bytes, std::uint32_t assoc);

    /** Where a line lives: its set and, when present, its way. */
    struct Probe
    {
        std::uint32_t base = 0;     ///< first way of the line's set
        std::uint32_t way = kNoWay; ///< way holding the line, or kNoWay
    };

    /** Locate @p line with one hash and one set scan; no LRU bump. */
    Probe
    probe(Addr line) const
    {
        const std::uint32_t base = setBase(line);
        const Addr* set = tags_.data() + base;
        std::uint32_t way = kNoWay;
        // (tag ^ line) - 1 < kStateMask holds exactly when the tag's line
        // bits equal @p line and its state is not Invalid (0 wraps to the
        // maximum). At most one valid way holds a line, so scanning every
        // way without an early exit finds the same way, branch-free.
        for (std::uint32_t w = 0; w < assoc_; ++w)
            way = (set[w] ^ line) - 1 < kStateMask ? base + w : way;
        return {base, way};
    }

    /** Mark @p way (from probe()) most recently used. */
    void touch(std::uint32_t way) { lastUse_[way] = ++useClock_; }

    /** State of @p line; bumps LRU on hit. Invalid if absent. */
    LineState
    lookup(Addr line)
    {
        const Probe p = probe(line);
        if (p.way == kNoWay)
            return LineState::Invalid;
        touch(p.way);
        return stateAt(p.way);
    }

    /** State of the line in @p way (a way from probe()). */
    LineState
    stateAt(std::uint32_t way) const
    {
        return static_cast<LineState>(tags_[way] & kStateMask);
    }

    /** Change the state of @p way in place, without an LRU bump. */
    void
    setStateAt(std::uint32_t way, LineState st)
    {
        tags_[way] = (tags_[way] & ~kStateMask) | static_cast<Addr>(st);
    }

    /** A displaced line from insert(). */
    struct Eviction
    {
        Addr line = 0;
        LineState state = LineState::Invalid;
    };

    /**
     * Insert @p line in state @p st (must not be present). Returns the
     * evicted valid line, if any.
     */
    Eviction
    insert(Addr line, LineState st)
    {
        return insertAt(Probe{setBase(line), kNoWay}, line, st);
    }

    /**
     * insert() for a line that probe() just reported absent as @p p: the
     * victim comes from @p p's set, with no second hash.
     */
    Eviction insertAt(const Probe& p, Addr line, LineState st);

    /** Drop @p line if present. */
    void
    invalidate(Addr line)
    {
        const Probe p = probe(line);
        if (p.way != kNoWay)
            setStateAt(p.way, LineState::Invalid);
    }

    /**
     * Append all lines in state @p st to @p out. Release flushes pass a
     * reused scratch buffer, so a flush does not allocate.
     */
    void collectLines(LineState st, std::vector<Addr>& out) const;

    /**
     * Invalidate every line for which @p keep_owned is false or the state
     * is not Owned. Returns the number of lines invalidated. Used for
     * flash self-invalidation (GPU: everything; DeNovo: non-owned only).
     */
    std::uint64_t invalidateForAcquire(bool keep_owned);

    /** Downgrade all Dirty lines to Valid (after a release flush). */
    void cleanDirty();

  private:
    /** Low tag bits holding the LineState (lines are 4-byte aligned+). */
    static constexpr Addr kStateMask = 3;

    /** First way of @p line's set. */
    std::uint32_t
    setBase(Addr line) const
    {
        // Hash the line index so strided graph arrays spread across sets.
        const std::uint64_t h = hashMix64(line / SimParams::lineBytes);
        const std::uint64_t set =
            setsPow2_ ? h & (numSets_ - 1) : h % numSets_;
        return static_cast<std::uint32_t>(set) * assoc_;
    }

    std::uint32_t numSets_;
    std::uint32_t assoc_;
    /** Index sets by mask; otherwise by exact modulo. */
    bool setsPow2_;
    std::uint64_t useClock_ = 0;
    std::vector<Addr> tags_;             ///< numSets_ x assoc_, row-major
    std::vector<std::uint64_t> lastUse_; ///< LRU stamps, same layout
};

} // namespace gga

#endif // GGA_SIM_CACHE_HPP
