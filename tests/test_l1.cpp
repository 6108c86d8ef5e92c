/**
 * @file
 * Unit tests for the L1 controller under both coherence protocols:
 * load hits/misses, GPU write-combining and release flush, acquire
 * self-invalidation, DeNovo ownership and local atomics, recalls.
 */

#include <gtest/gtest.h>

#include "sim/dram.hpp"
#include "sim/engine.hpp"
#include "sim/l1.hpp"
#include "sim/l2.hpp"
#include "sim/noc.hpp"
#include "sim/params.hpp"

namespace gga {
namespace {

struct L1Fixture : ::testing::Test
{
    explicit L1Fixture(CoherenceKind coh = CoherenceKind::Gpu)
        : l2(engine, params, noc, dram),
          l1(engine, params, coh, /*sm_id=*/0, l2)
    {
        l2.setRecallHandler(
            [this](std::uint32_t, Addr line) { l1.onRecall(line); });
    }

    Cycles
    timedLoad(std::initializer_list<Addr> lines)
    {
        std::vector<Addr> v(lines);
        const Cycles start = engine.now();
        Cycles done = 0;
        l1.load(v.data(), static_cast<std::uint32_t>(v.size()),
                [this, &done] { done = engine.now(); });
        engine.run();
        return done - start;
    }

    Cycles
    timedAtomic(std::initializer_list<Addr> words)
    {
        std::vector<Addr> v(words);
        const Cycles start = engine.now();
        Cycles done = 0;
        l1.atomic(v.data(), static_cast<std::uint32_t>(v.size()),
                  [this, &done] { done = engine.now(); });
        engine.run();
        return done - start;
    }

    void
    doStore(std::initializer_list<Addr> lines)
    {
        std::vector<Addr> v(lines);
        l1.store(v.data(), static_cast<std::uint32_t>(v.size()), [] {});
        engine.run();
    }

    SimParams params;
    Engine engine;
    MeshNoc noc;
    Dram dram;
    L2System l2;
    L1Controller l1;
};

struct GpuL1 : L1Fixture
{
    GpuL1() : L1Fixture(CoherenceKind::Gpu) {}
};

struct DeNovoL1 : L1Fixture
{
    DeNovoL1() : L1Fixture(CoherenceKind::DeNovo) {}
};

TEST_F(GpuL1, LoadMissThenHit)
{
    const Cycles miss = timedLoad({0x1000});
    EXPECT_GT(miss, params.l2BankLatency);
    const Cycles hit = timedLoad({0x1000});
    EXPECT_EQ(hit, params.l1HitLatency);
    EXPECT_EQ(l1.stats().loadMisses, 1u);
    EXPECT_EQ(l1.stats().loadHits, 1u);
}

TEST_F(GpuL1, MultiLineLoadWaitsForAll)
{
    timedLoad({0x1000}); // warm one line
    const Cycles mixed = timedLoad({0x1000, 0x2000});
    EXPECT_GT(mixed, params.l1HitLatency); // the missing line dominates
}

TEST_F(GpuL1, StoresCombineAndFlushAtRelease)
{
    doStore({0x3000, 0x3040});
    EXPECT_EQ(l1.stats().stores, 1u);
    Cycles done = 0;
    l1.releaseFlush([this, &done] { done = engine.now(); });
    engine.run();
    EXPECT_EQ(l1.stats().flushedLines, 2u);
    EXPECT_GT(done, 0u);
    EXPECT_EQ(l2.stats().writes, 2u);
    // Second release has nothing dirty to flush.
    l1.releaseFlush([] {});
    engine.run();
    EXPECT_EQ(l1.stats().flushedLines, 2u);
}

TEST_F(GpuL1, AcquireInvalidatesEverything)
{
    timedLoad({0x1000});
    l1.acquireInvalidate([] {});
    engine.run();
    EXPECT_GE(l1.stats().acquireInvalidatedLines, 1u);
    const Cycles after = timedLoad({0x1000});
    EXPECT_GT(after, params.l1HitLatency); // miss again
}

TEST_F(GpuL1, AtomicsBypassL1)
{
    timedAtomic({0x5000});
    timedAtomic({0x5000});
    EXPECT_EQ(l1.stats().l2AtomicsSent, 2u);
    EXPECT_EQ(l2.stats().atomics, 2u);
    EXPECT_EQ(l1.stats().atomicL1Hits, 0u);
    // The atomic did not populate the L1.
    const Cycles load = timedLoad({0x5000});
    EXPECT_GT(load, params.l1HitLatency);
}

TEST_F(DeNovoL1, StoreObtainsOwnership)
{
    doStore({0x6000});
    engine.run();
    EXPECT_EQ(l1.stats().ownershipRequests, 1u);
    ASSERT_TRUE(l2.ownerOf(0x6000).has_value());
    EXPECT_EQ(*l2.ownerOf(0x6000), 0u);
    // Owned line: subsequent stores are free, loads hit.
    doStore({0x6000});
    EXPECT_EQ(l1.stats().ownershipRequests, 1u);
    EXPECT_EQ(timedLoad({0x6000}), params.l1HitLatency);
}

TEST_F(DeNovoL1, AcquireKeepsOwnedLines)
{
    doStore({0x6000});
    timedLoad({0x7000});
    l1.acquireInvalidate([] {});
    engine.run();
    EXPECT_EQ(timedLoad({0x6000}), params.l1HitLatency); // still owned
    EXPECT_GT(timedLoad({0x7000}), params.l1HitLatency); // was invalidated
}

TEST_F(DeNovoL1, AtomicMissesThenHitsLocally)
{
    const Cycles first = timedAtomic({0x8000});
    EXPECT_GT(first, params.l1AtomicLatency);
    EXPECT_EQ(l1.stats().ownershipRequests, 1u);
    // The miss path re-enters the local unit once ownership lands, so the
    // first atomic already counts one local execution.
    EXPECT_EQ(l1.stats().atomicL1Hits, 1u);
    const Cycles second = timedAtomic({0x8000});
    EXPECT_EQ(l1.stats().atomicL1Hits, 2u);
    EXPECT_LE(second, 2 * (params.l1AtomicLatency +
                           params.l1AtomicServiceInterval));
    EXPECT_LT(second, first);
}

TEST_F(DeNovoL1, RecallDropsOwnershipAndReacquires)
{
    timedAtomic({0x9000});
    l1.onRecall(0x9000 & ~63ull);
    EXPECT_EQ(l1.stats().recalls, 1u);
    timedAtomic({0x9000});
    EXPECT_EQ(l1.stats().ownershipRequests, 2u);
}

TEST_F(DeNovoL1, ReleaseWaitsForPendingFills)
{
    std::vector<Addr> line{0xa000};
    l1.store(line.data(), 1, [] {});
    Cycles release_done = 0;
    l1.releaseFlush([this, &release_done] { release_done = engine.now(); });
    engine.run();
    EXPECT_EQ(l1.pendingStoreFills(), 0u);
    EXPECT_GT(release_done, 0u);
    // DeNovo flushes nothing at releases.
    EXPECT_EQ(l1.stats().flushedLines, 0u);
}

} // namespace
} // namespace gga
