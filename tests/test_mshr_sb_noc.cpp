/**
 * @file
 * Unit tests for MSHRs (merging, conflicts, capacity), the store buffer,
 * the mesh NoC latency model, and the DRAM channel model.
 */

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/dram.hpp"
#include "sim/engine.hpp"
#include "sim/mshr.hpp"
#include "sim/noc.hpp"
#include "sim/params.hpp"
#include "sim/store_buffer.hpp"

namespace gga {
namespace {

TEST(Mshr, NewEntryThenMerge)
{
    Engine engine;
    MshrTable m(engine, 4);
    std::vector<int> order;
    EXPECT_EQ(m.addWaiter(64, FillKind::Data, [&order] { order.push_back(1); }),
              MshrAdd::NewEntry);
    EXPECT_EQ(m.addWaiter(64, FillKind::Data, [&order] { order.push_back(2); }),
              MshrAdd::Merged);
    EXPECT_TRUE(m.isPending(64));
    Engine::WaitList waiters = m.complete(64);
    EXPECT_FALSE(m.isPending(64));
    EXPECT_TRUE(order.empty()); // completion detaches; runAll runs
    engine.runAll(std::move(waiters));
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_TRUE(m.complete(64).empty());
}

TEST(Mshr, OwnershipConflictsWithDataFill)
{
    Engine engine;
    MshrTable m(engine, 4);
    EXPECT_EQ(m.addWaiter(64, FillKind::Data, [] {}), MshrAdd::NewEntry);
    EXPECT_EQ(m.addWaiter(64, FillKind::Ownership, [] {}),
              MshrAdd::Conflict);
    // Data merges into an ownership fill, though.
    EXPECT_EQ(m.addWaiter(128, FillKind::Ownership, [] {}),
              MshrAdd::NewEntry);
    EXPECT_EQ(m.addWaiter(128, FillKind::Data, [] {}), MshrAdd::Merged);
}

TEST(Mshr, CapacityAndRetryOnFill)
{
    Engine engine;
    MshrTable m(engine, 1);
    EXPECT_FALSE(m.full());
    int filled = 0;
    m.addWaiter(64, FillKind::Data, [&filled] { ++filled; });
    EXPECT_TRUE(m.full());
    int retried = 0;
    m.addRetryOnFill(64, [&retried] { ++retried; });
    EXPECT_EQ(retried, 0);
    engine.runAll(m.complete(64));
    EXPECT_EQ(filled, 1);
    EXPECT_EQ(retried, 1);
    EXPECT_FALSE(m.full());
    // Retry attached to an absent line fires immediately.
    m.addRetryOnFill(999, [&retried] { ++retried; });
    EXPECT_EQ(retried, 2);
}

TEST(Mshr, WaitersMayReRegisterWhileRunning)
{
    // A waiter that starts a new fill of the same line lands in a fresh
    // entry, not in the list being run.
    Engine engine;
    MshrTable m(engine, 2);
    int runs = 0;
    m.addWaiter(64, FillKind::Data, [&m, &runs] {
        ++runs;
        EXPECT_EQ(m.addWaiter(64, FillKind::Ownership, [&runs] { ++runs; }),
                  MshrAdd::NewEntry);
    });
    engine.runAll(m.complete(64));
    EXPECT_EQ(runs, 1);
    EXPECT_TRUE(m.isPending(64));
    engine.runAll(m.complete(64));
    EXPECT_EQ(runs, 2);
}

TEST(StoreBufferTest, AcquireRelease)
{
    StoreBuffer sb(2);
    EXPECT_TRUE(sb.empty());
    sb.acquire();
    sb.acquire();
    EXPECT_TRUE(sb.full());
    EXPECT_EQ(sb.freeEntries(), 0u);
    sb.release();
    EXPECT_FALSE(sb.full());
    EXPECT_EQ(sb.inUse(), 1u);
}

TEST(Noc, HopDistancesOnMesh)
{
    // Past the router, latency is per hop of the Manhattan distance.
    const auto hopCycles = [](std::uint32_t a, std::uint32_t b) {
        return meshLatency(a, b) - SimParams::nocRouterLatency;
    };
    constexpr Cycles kHop = SimParams::nocPerHopLatency;
    EXPECT_EQ(hopCycles(0, 0), 0 * kHop);
    EXPECT_EQ(hopCycles(0, 3), 3 * kHop);  // same row
    EXPECT_EQ(hopCycles(0, 12), 3 * kHop); // same column
    EXPECT_EQ(hopCycles(0, 15), 6 * kHop); // opposite corner
    EXPECT_EQ(hopCycles(5, 10), 2 * kHop);
    EXPECT_EQ(hopCycles(10, 5), 2 * kHop); // either direction
}

TEST(Noc, LatencyIsRouterPlusHops)
{
    EXPECT_EQ(meshLatency(0, 0), SimParams::nocRouterLatency);
    EXPECT_EQ(meshLatency(0, 15), SimParams::nocRouterLatency +
                                      6 * SimParams::nocPerHopLatency);
}

TEST(DramTest, LatencyAndChannelOccupancy)
{
    SimParams p;
    Dram d;
    const Cycles t1 = d.access(0, 0, /*is_write=*/false);
    EXPECT_EQ(t1, p.dramLatency);
    // Same line (same channel) back-to-back queues behind the interval.
    const Cycles t2 = d.access(0, 0, /*is_write=*/false);
    EXPECT_EQ(t2, p.dramServiceInterval + p.dramLatency);
    EXPECT_EQ(d.reads(), 2u);
}

TEST(DramTest, WritesArePosted)
{
    SimParams p;
    Dram d;
    const Cycles t = d.access(10, 64, /*is_write=*/true);
    EXPECT_EQ(t, 10 + p.dramServiceInterval);
    EXPECT_EQ(d.writes(), 1u);
}

TEST(DramTest, ChannelsDrainWhenIdle)
{
    SimParams p;
    Dram d;
    d.access(0, 0, false);
    // Much later, the channel is free again: no residual queueing.
    const Cycles t = d.access(1000, 0, false);
    EXPECT_EQ(t, 1000 + p.dramLatency);
}

} // namespace
} // namespace gga
