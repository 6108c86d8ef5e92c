#include "sim/cache.hpp"

#include <bit>

#include "support/log.hpp"
#include "support/rng.hpp"

namespace gga {

SetAssocCache::SetAssocCache(std::uint32_t size_bytes, std::uint32_t assoc,
                             std::uint32_t line_bytes)
    : numSets_(size_bytes / line_bytes / assoc),
      assoc_(assoc),
      lineShift_(static_cast<std::uint32_t>(std::countr_zero(line_bytes))),
      setsPow2_(std::has_single_bit(numSets_)),
      tags_(static_cast<std::size_t>(numSets_) * assoc),
      lastUse_(tags_.size())
{
    GGA_ASSERT(std::has_single_bit(line_bytes) && line_bytes > kStateMask,
               "line size must be a power of two of at least 4 bytes");
    GGA_ASSERT(numSets_ > 0, "cache too small for its associativity");
}

std::uint32_t
SetAssocCache::setBase(Addr line) const
{
    // Hash the line index so strided graph arrays spread across sets.
    const std::uint64_t h = hashMix64(line >> lineShift_);
    const std::uint64_t set = setsPow2_ ? h & (numSets_ - 1) : h % numSets_;
    return static_cast<std::uint32_t>(set) * assoc_;
}

std::uint32_t
SetAssocCache::findWay(Addr line) const
{
    const std::uint32_t base = setBase(line);
    const Addr* set = tags_.data() + base;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
        if ((set[w] & ~kStateMask) == line && (set[w] & kStateMask) != 0)
            return base + w;
    }
    return kNoWay;
}

SetAssocCache::Eviction
SetAssocCache::insert(Addr line, LineState st)
{
    GGA_ASSERT(st != LineState::Invalid, "cannot insert an invalid line");
    GGA_ASSERT((line & kStateMask) == 0, "inserting an unaligned line");
    // Victim: the first invalid way, else the least recently used one
    // (the first of equals).
    const std::uint32_t base = setBase(line);
    std::uint32_t victim = kNoWay;
    for (std::uint32_t w = base; w < base + assoc_; ++w) {
        const Addr tag = tags_[w];
        GGA_ASSERT((tag & kStateMask) == 0 || (tag & ~kStateMask) != line,
                   "inserting a line that is already present");
        if ((tag & kStateMask) == 0) {
            victim = w;
            break;
        }
        if (victim == kNoWay || lastUse_[w] < lastUse_[victim])
            victim = w;
    }
    Eviction ev;
    if (stateAt(victim) != LineState::Invalid) {
        ev.line = tags_[victim] & ~kStateMask;
        ev.state = stateAt(victim);
    }
    tags_[victim] = line | static_cast<Addr>(st);
    lastUse_[victim] = ++useClock_;
    return ev;
}

void
SetAssocCache::invalidate(Addr line)
{
    const std::uint32_t way = findWay(line);
    if (way != kNoWay)
        setStateAt(way, LineState::Invalid);
}

std::vector<Addr>
SetAssocCache::collectLines(LineState st) const
{
    std::vector<Addr> out;
    collectLines(st, out);
    return out;
}

void
SetAssocCache::collectLines(LineState st, std::vector<Addr>& out) const
{
    for (const Addr tag : tags_) {
        if ((tag & kStateMask) == static_cast<Addr>(st))
            out.push_back(tag & ~kStateMask);
    }
}

std::uint64_t
SetAssocCache::invalidateForAcquire(bool keep_owned)
{
    constexpr auto kOwned = static_cast<Addr>(LineState::Owned);
    std::uint64_t count = 0;
    for (Addr& tag : tags_) {
        const Addr st = tag & kStateMask;
        if (st == 0 || (keep_owned && st == kOwned))
            continue;
        tag &= ~kStateMask;
        ++count;
    }
    return count;
}

void
SetAssocCache::cleanDirty()
{
    constexpr auto kDirty = static_cast<Addr>(LineState::Dirty);
    constexpr auto kValid = static_cast<Addr>(LineState::Valid);
    for (Addr& tag : tags_) {
        if ((tag & kStateMask) == kDirty)
            tag = (tag & ~kStateMask) | kValid;
    }
}

} // namespace gga
