/**
 * @file
 * Unit tests for the set-associative tag array: hits, LRU eviction, state
 * transitions, flash invalidation semantics for both protocols, the
 * probe/insertAt single-probe path, and a seeded differential test
 * against the array-of-structs reference.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference/rng.hpp"
#include "sim/cache.hpp"
#include "support/rng.hpp"

namespace gga {
namespace {

// A tiny 2-set, 2-way cache with 64B lines: 256 bytes total.
SetAssocCache
tinyCache()
{
    return SetAssocCache(256, 2);
}

TEST(Cache, MissThenHit)
{
    SetAssocCache c = tinyCache();
    EXPECT_EQ(c.lookup(0), LineState::Invalid);
    c.insert(0, LineState::Valid);
    EXPECT_EQ(c.lookup(0), LineState::Valid);
}

TEST(Cache, LruOrderRespectsRecency)
{
    // Direct test with a known-colliding set: use a 1-set cache.
    SetAssocCache c(128, 2); // 1 set, 2 ways
    c.insert(0, LineState::Valid);
    c.insert(64, LineState::Valid);
    // Touch line 0 so line 64 is LRU.
    EXPECT_EQ(c.lookup(0), LineState::Valid);
    const auto ev = c.insert(128, LineState::Valid);
    EXPECT_EQ(ev.line, 64u);
    EXPECT_EQ(ev.state, LineState::Valid);
    EXPECT_EQ(c.lookup(0), LineState::Valid);
    EXPECT_EQ(c.lookup(64), LineState::Invalid);
    EXPECT_EQ(c.lookup(128), LineState::Valid);
}

TEST(Cache, InsertReportsDirtyEviction)
{
    SetAssocCache c(128, 2);
    c.insert(0, LineState::Dirty);
    c.insert(64, LineState::Valid);
    EXPECT_EQ(c.lookup(64), LineState::Valid); // 0 is LRU now? no: 0 older
    const auto ev = c.insert(128, LineState::Valid);
    EXPECT_EQ(ev.line, 0u);
    EXPECT_EQ(ev.state, LineState::Dirty);
}

TEST(Cache, InvalidateSingleLine)
{
    SetAssocCache c = tinyCache();
    c.insert(0, LineState::Owned);
    c.invalidate(0);
    EXPECT_EQ(c.lookup(0), LineState::Invalid);
}

TEST(Cache, FlashInvalidateKeepsOwnedWhenAsked)
{
    SetAssocCache c = tinyCache();
    c.insert(0, LineState::Valid);
    c.insert(64, LineState::Owned);
    c.insert(128, LineState::Dirty);
    const std::uint64_t n = c.invalidateForAcquire(/*keep_owned=*/true);
    EXPECT_EQ(n, 2u); // Valid and Dirty dropped
    EXPECT_EQ(c.lookup(64), LineState::Owned);
    EXPECT_EQ(c.lookup(0), LineState::Invalid);
}

TEST(Cache, FlashInvalidateAllForGpu)
{
    SetAssocCache c = tinyCache();
    c.insert(0, LineState::Valid);
    c.insert(64, LineState::Owned);
    EXPECT_EQ(c.invalidateForAcquire(/*keep_owned=*/false), 2u);
    EXPECT_EQ(c.lookup(64), LineState::Invalid);
}

TEST(Cache, CollectAndCleanDirty)
{
    SetAssocCache c = tinyCache();
    c.insert(0, LineState::Dirty);
    c.insert(64, LineState::Valid);
    c.insert(128, LineState::Dirty);
    std::vector<Addr> dirty{999}; // appended to, not replaced
    c.collectLines(LineState::Dirty, dirty);
    EXPECT_EQ(dirty.size(), 3u);
    EXPECT_EQ(dirty.front(), 999u);
    c.cleanDirty();
    dirty.clear();
    c.collectLines(LineState::Dirty, dirty);
    EXPECT_TRUE(dirty.empty());
    EXPECT_EQ(c.lookup(0), LineState::Valid);
}

TEST(Cache, StateUpgradeInPlace)
{
    SetAssocCache c = tinyCache();
    c.insert(0, LineState::Valid);
    const SetAssocCache::Probe p = c.probe(0);
    ASSERT_NE(p.way, SetAssocCache::kNoWay);
    EXPECT_EQ(c.stateAt(p.way), LineState::Valid);
    c.setStateAt(p.way, LineState::Owned);
    EXPECT_EQ(c.probe(0).way, p.way);
    EXPECT_EQ(c.lookup(0), LineState::Owned);
    EXPECT_EQ(c.probe(64 * 1000).way, SetAssocCache::kNoWay);
}

TEST(Cache, ProbeIgnoresInvalidatedCopiesOfTheLine)
{
    // An invalidated way keeps its line bits; the branch-free match must
    // still read it as absent (state 0), and a refill must be found.
    SetAssocCache c(128, 2); // 1 set, 2 ways
    c.insert(0, LineState::Dirty);
    c.invalidate(0);
    EXPECT_EQ(c.probe(0).way, SetAssocCache::kNoWay);
    c.insert(64, LineState::Valid);
    c.insertAt(c.probe(0), 0, LineState::Owned);
    EXPECT_EQ(c.lookup(0), LineState::Owned);
    EXPECT_EQ(c.invalidateForAcquire(/*keep_owned=*/false), 2u);
    EXPECT_EQ(c.probe(0).way, SetAssocCache::kNoWay);
    EXPECT_EQ(c.probe(64).way, SetAssocCache::kNoWay);
}

/**
 * The array-of-structs tag array SetAssocCache replaced, kept as the
 * reference its packed layout must match: one {line, state, stamp}
 * record per way, sets picked by hashMix64(line / lineBytes) % sets.
 */
class ReferenceCache
{
  public:
    ReferenceCache(std::uint32_t size_bytes, std::uint32_t assoc,
                   std::uint32_t line_bytes)
        : numSets_(size_bytes / line_bytes / assoc),
          assoc_(assoc),
          lineBytes_(line_bytes),
          ways_(static_cast<std::size_t>(numSets_) * assoc)
    {
    }

    LineState
    lookup(Addr line)
    {
        if (Way* w = find(line)) {
            w->lastUse = ++useClock_;
            return w->state;
        }
        return LineState::Invalid;
    }

    LineState
    peek(Addr line)
    {
        const Way* w = find(line);
        return w ? w->state : LineState::Invalid;
    }

    void
    setState(Addr line, LineState st)
    {
        find(line)->state = st;
    }

    SetAssocCache::Eviction
    insert(Addr line, LineState st)
    {
        Way* victim = nullptr;
        for (Way* w = set(line); w != set(line) + assoc_; ++w) {
            if (w->state == LineState::Invalid) {
                victim = w;
                break;
            }
            if (!victim || w->lastUse < victim->lastUse)
                victim = w;
        }
        SetAssocCache::Eviction ev;
        if (victim->state != LineState::Invalid)
            ev = {victim->line, victim->state};
        *victim = Way{line, st, ++useClock_};
        return ev;
    }

    void
    invalidate(Addr line)
    {
        if (Way* w = find(line))
            w->state = LineState::Invalid;
    }

    std::vector<Addr>
    collectLines(LineState st) const
    {
        std::vector<Addr> out;
        for (const Way& w : ways_) {
            if (w.state == st)
                out.push_back(w.line);
        }
        return out;
    }

    std::uint64_t
    invalidateForAcquire(bool keep_owned)
    {
        std::uint64_t count = 0;
        for (Way& w : ways_) {
            if (w.state == LineState::Invalid ||
                (keep_owned && w.state == LineState::Owned))
                continue;
            w.state = LineState::Invalid;
            ++count;
        }
        return count;
    }

    void
    cleanDirty()
    {
        for (Way& w : ways_) {
            if (w.state == LineState::Dirty)
                w.state = LineState::Valid;
        }
    }

  private:
    struct Way
    {
        Addr line = 0;
        LineState state = LineState::Invalid;
        std::uint64_t lastUse = 0;
    };

    Way*
    set(Addr line)
    {
        const std::uint64_t s = hashMix64(line / lineBytes_) % numSets_;
        return &ways_[s * assoc_];
    }

    Way*
    find(Addr line)
    {
        for (Way* w = set(line); w != set(line) + assoc_; ++w) {
            if (w->state != LineState::Invalid && w->line == line)
                return w;
        }
        return nullptr;
    }

    std::uint32_t numSets_;
    std::uint32_t assoc_;
    std::uint32_t lineBytes_;
    std::uint64_t useClock_ = 0;
    std::vector<Way> ways_;
};

struct Geometry
{
    std::uint32_t sizeBytes;
    std::uint32_t assoc;
};

class CacheDifferential : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheDifferential, MatchesReferenceOnRandomStreams)
{
    constexpr std::uint32_t kLineBytes = SimParams::lineBytes;
    const Geometry g = GetParam();
    SetAssocCache cache(g.sizeBytes, g.assoc);
    ReferenceCache ref(g.sizeBytes, g.assoc, kLineBytes);
    // Twice as many distinct lines as ways, so sets overflow and evict.
    const std::uint64_t lines = 2ull * g.sizeBytes / kLineBytes;
    Xoshiro256StarStar rng(0x5eed + g.sizeBytes + g.assoc);
    const auto randomState = [&rng] {
        return static_cast<LineState>(1 + rng.nextBounded(3));
    };
    for (int op = 0; op < 200000; ++op) {
        const Addr line = rng.nextBounded(lines) * kLineBytes;
        const std::uint64_t kind = rng.nextBounded(1000);
        if (kind < 300) {
            ASSERT_EQ(cache.lookup(line), ref.lookup(line)) << "op " << op;
        } else if (kind < 500) {
            // The controllers' hit path: probe, then touch on a hit.
            const SetAssocCache::Probe p = cache.probe(line);
            const LineState want = ref.lookup(line);
            ASSERT_EQ(p.way == SetAssocCache::kNoWay,
                      want == LineState::Invalid)
                << "op " << op;
            if (p.way != SetAssocCache::kNoWay) {
                ASSERT_EQ(cache.stateAt(p.way), want) << "op " << op;
                cache.touch(p.way);
            }
        } else if (kind < 850) {
            if (ref.peek(line) != LineState::Invalid)
                continue;
            // The controllers' miss path (probe, then insertAt in the
            // probed set) and plain insert() must evict alike.
            const LineState st = randomState();
            const SetAssocCache::Probe p = cache.probe(line);
            ASSERT_EQ(p.way, SetAssocCache::kNoWay) << "op " << op;
            const SetAssocCache::Eviction got =
                rng.nextBounded(2) == 0 ? cache.insertAt(p, line, st)
                                        : cache.insert(line, st);
            const SetAssocCache::Eviction want = ref.insert(line, st);
            ASSERT_EQ(got.line, want.line) << "op " << op;
            ASSERT_EQ(got.state, want.state) << "op " << op;
        } else if (kind < 950) {
            const std::uint32_t way = cache.probe(line).way;
            const LineState want = ref.peek(line);
            ASSERT_EQ(way == SetAssocCache::kNoWay,
                      want == LineState::Invalid)
                << "op " << op;
            if (way == SetAssocCache::kNoWay)
                continue;
            ASSERT_EQ(cache.stateAt(way), want) << "op " << op;
            const LineState st = randomState();
            cache.setStateAt(way, st);
            ref.setState(line, st);
        } else if (kind < 990) {
            cache.invalidate(line);
            ref.invalidate(line);
        } else if (kind < 994) {
            const bool keep_owned = rng.nextBounded(2) == 0;
            ASSERT_EQ(cache.invalidateForAcquire(keep_owned),
                      ref.invalidateForAcquire(keep_owned))
                << "op " << op;
        } else if (kind < 997) {
            cache.cleanDirty();
            ref.cleanDirty();
        } else {
            for (const LineState st :
                 {LineState::Invalid, LineState::Valid, LineState::Dirty,
                  LineState::Owned}) {
                std::vector<Addr> got;
                cache.collectLines(st, got);
                ASSERT_EQ(got, ref.collectLines(st)) << "op " << op;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(Geometry{32 * 1024, 8},   // L1: 64 sets x 8 ways
                      Geometry{256 * 1024, 16}, // L2 bank: 256 x 16
                      Geometry{48 * 1024, 8}),  // 96 sets: exact modulo
    [](const ::testing::TestParamInfo<Geometry>& info) {
        const Geometry& g = info.param;
        return std::to_string(g.sizeBytes / 64 / g.assoc) + "x" +
               std::to_string(g.assoc);
    });

} // namespace
} // namespace gga
