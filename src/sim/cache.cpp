#include "sim/cache.hpp"

#include <bit>

#include "support/log.hpp"

namespace gga {

SetAssocCache::SetAssocCache(std::uint32_t size_bytes, std::uint32_t assoc)
    : numSets_(size_bytes / SimParams::lineBytes / assoc),
      assoc_(assoc),
      setsPow2_(std::has_single_bit(numSets_)),
      tags_(static_cast<std::size_t>(numSets_) * assoc),
      lastUse_(tags_.size())
{
    GGA_ASSERT(numSets_ > 0, "cache too small for its associativity");
}

SetAssocCache::Eviction
SetAssocCache::insertAt(const Probe& p, Addr line, LineState st)
{
    GGA_ASSERT(st != LineState::Invalid, "cannot insert an invalid line");
    GGA_ASSERT((line & kStateMask) == 0, "inserting an unaligned line");
    GGA_ASSERT(p.way == kNoWay, "inserting a line that is already present");
    // Victim: the first invalid way, else the least recently used one
    // (the first of equals).
    const std::uint32_t base = p.base;
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
