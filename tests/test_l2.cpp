/**
 * @file
 * Unit tests for the L2 system: latency ranges, per-word atomic
 * serialization, the DeNovo directory (registration, forwarding,
 * recalls), and ownership release.
 */

#include <gtest/gtest.h>

#include "sim/dram.hpp"
#include "sim/engine.hpp"
#include "sim/l2.hpp"
#include "sim/params.hpp"

namespace gga {
namespace {

struct L2Fixture : ::testing::Test
{
    L2Fixture() : l2(engine, dram) {}

    Cycles
    timedRead(std::uint32_t sm, Addr line)
    {
        Cycles done = 0;
        l2.read(sm, line, [this, &done] { done = engine.now(); });
        engine.run();
        return done;
    }

    Cycles
    timedAtomic(std::uint32_t sm, Addr word)
    {
        Cycles done = 0;
        l2.atomic(sm, word, [this, &done] { done = engine.now(); });
        engine.run();
        return done;
    }

    Cycles
    timedGetO(std::uint32_t sm, Addr line)
    {
        Cycles done = 0;
        l2.getOwnership(sm, line, [this, &done] { done = engine.now(); });
        engine.run();
        return done;
    }

    Engine engine;
    Dram dram;
    L2System l2;
};

TEST_F(L2Fixture, ColdReadGoesToDramThenHits)
{
    const Cycles cold = timedRead(0, 0x1000);
    EXPECT_GT(cold, SimParams::dramLatency);
    const Cycles warm_done = timedRead(0, 0x1000);
    // Second read hits in L2: substantially faster than the cold one.
    EXPECT_LT(warm_done - cold, SimParams::dramLatency);
    EXPECT_EQ(l2.stats().reads, 2u);
    EXPECT_EQ(l2.stats().readMisses, 1u);
}

TEST_F(L2Fixture, AtomicsToSameWordSerialize)
{
    // Warm the line first so timing is pure serialization.
    timedAtomic(0, 0x2000);
    std::vector<Cycles> completions;
    for (int i = 0; i < 4; ++i) {
        l2.atomic(0, 0x2000, [this, &completions] {
            completions.push_back(engine.now());
        });
    }
    engine.run();
    ASSERT_EQ(completions.size(), 4u);
    for (std::size_t i = 1; i < completions.size(); ++i) {
        EXPECT_GE(completions[i] - completions[i - 1],
                  SimParams::atomicServiceInterval);
    }
}

TEST_F(L2Fixture, AtomicsToDifferentWordsOverlap)
{
    timedAtomic(0, 0x3000);
    timedAtomic(0, 0x3100); // warm both lines
    const Cycles t0 = engine.now();
    std::vector<Cycles> completions;
    l2.atomic(0, 0x3000, [this, &completions] {
        completions.push_back(engine.now());
    });
    l2.atomic(1, 0x3100, [this, &completions] {
        completions.push_back(engine.now());
    });
    engine.run();
    ASSERT_EQ(completions.size(), 2u);
    // Different words at (likely) different banks do not serialize by the
    // per-word rule; both finish well within 2x a single round trip.
    EXPECT_LT(completions[1] - t0, 2 * (SimParams::l2BankLatency + 40));
}

TEST_F(L2Fixture, OwnershipRegistersAndForwards)
{
    EXPECT_FALSE(l2.ownerOf(0x4000).has_value());
    timedGetO(2, 0x4000);
    ASSERT_TRUE(l2.ownerOf(0x4000).has_value());
    EXPECT_EQ(*l2.ownerOf(0x4000), 2u);

    // A second SM takes ownership; the previous owner is recalled.
    std::uint32_t recalled_sm = ~0u;
    Addr recalled_line = 0;
    l2.setRecallHandler([&](std::uint32_t sm, Addr line) {
        recalled_sm = sm;
        recalled_line = line;
    });
    timedGetO(5, 0x4000);
    EXPECT_EQ(*l2.ownerOf(0x4000), 5u);
    EXPECT_EQ(recalled_sm, 2u);
    EXPECT_EQ(recalled_line, 0x4000u);
    EXPECT_EQ(l2.stats().forwards, 1u);
}

TEST_F(L2Fixture, ReadForwardsFromRemoteOwner)
{
    timedGetO(3, 0x5000);
    const std::uint64_t fwd_before = l2.stats().forwards;
    timedRead(7, 0x5000);
    EXPECT_EQ(l2.stats().forwards, fwd_before + 1);
    // Ownership unchanged by a read.
    EXPECT_EQ(*l2.ownerOf(0x5000), 3u);
}

TEST_F(L2Fixture, ReleaseOwnershipClearsDirectory)
{
    timedGetO(4, 0x6000);
    l2.releaseOwnership(4, 0x6000);
    engine.run();
    EXPECT_FALSE(l2.ownerOf(0x6000).has_value());
    // Releasing a line owned by someone else is ignored.
    timedGetO(1, 0x6000);
    l2.releaseOwnership(9, 0x6000);
    engine.run();
    EXPECT_EQ(*l2.ownerOf(0x6000), 1u);
}

TEST_F(L2Fixture, OwnershipHandoffsSerializePerLine)
{
    timedGetO(0, 0x7000);
    std::vector<Cycles> completions;
    for (std::uint32_t sm = 1; sm <= 3; ++sm) {
        l2.getOwnership(sm, 0x7000, [this, &completions] {
            completions.push_back(engine.now());
        });
    }
    engine.run();
    ASSERT_EQ(completions.size(), 3u);
    // Each handoff includes a bank->owner->requester transfer; they
    // cannot complete closer together than a couple of hops.
    for (std::size_t i = 1; i < completions.size(); ++i)
        EXPECT_GT(completions[i] - completions[i - 1], 4u);
}

} // namespace
} // namespace gga
