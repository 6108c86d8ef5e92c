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
 */

#ifndef GGA_SIM_CACHE_HPP
#define GGA_SIM_CACHE_HPP

#include <cstdint>
#include <vector>

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

    SetAssocCache(std::uint32_t size_bytes, std::uint32_t assoc,
                  std::uint32_t line_bytes);

    /** State of @p line; bumps LRU on hit. Invalid if absent. */
    LineState
    lookup(Addr line)
    {
        const std::uint32_t way = lookupWay(line);
        return way == kNoWay ? LineState::Invalid : stateAt(way);
    }

    /** Way holding @p line, bumping LRU on hit; kNoWay if absent. */
    std::uint32_t
    lookupWay(Addr line)
    {
        const std::uint32_t way = findWay(line);
        if (way != kNoWay)
            lastUse_[way] = ++useClock_;
        return way;
    }

    /** Way holding @p line without an LRU bump; kNoWay if absent. */
    std::uint32_t findWay(Addr line) const;

    /** State of the line in @p way (a handle from findWay/lookupWay). */
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
    Eviction insert(Addr line, LineState st);

    /** Drop @p line if present. */
    void invalidate(Addr line);

    /** Collect all lines currently in state @p st. */
    std::vector<Addr> collectLines(LineState st) const;

    /**
     * Append all lines in state @p st to @p out. Callers on the hot path
     * (release flushes) pass a reused scratch buffer so a flush does not
     * allocate a fresh vector.
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

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return assoc_; }

  private:
    /** Low tag bits holding the LineState (lines are 4-byte aligned+). */
    static constexpr Addr kStateMask = 3;

    /** First way of @p line's set. */
    std::uint32_t setBase(Addr line) const;

    std::uint32_t numSets_;
    std::uint32_t assoc_;
    std::uint32_t lineShift_;
    /** Index sets by mask; otherwise by exact modulo. */
    bool setsPow2_;
    std::uint64_t useClock_ = 0;
    std::vector<Addr> tags_;             ///< numSets_ x assoc_, row-major
    std::vector<std::uint64_t> lastUse_; ///< LRU stamps, same layout
};

} // namespace gga

#endif // GGA_SIM_CACHE_HPP
