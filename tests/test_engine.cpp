/**
 * @file
 * Unit tests for the discrete-event engine: time ordering, FIFO tie
 * breaking, reentrancy, monotonic time, parked continuations, and the
 * node pool's memory bound.
 */

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine.hpp"

namespace gga {
namespace {

TEST(Engine, ExecutesInTimeOrder)
{
    Engine e;
    std::vector<int> order;
    e.schedule(30, [&order] { order.push_back(3); });
    e.schedule(10, [&order] { order.push_back(1); });
    e.schedule(20, [&order] { order.push_back(2); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, TiesBreakInScheduleOrder)
{
    Engine e;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        e.schedule(5, [&order, i] { order.push_back(i); });
    e.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Engine, CallbacksMayScheduleMore)
{
    Engine e;
    int depth = 0;
    EventFn chain = [&e, &depth]() {
        if (++depth < 10) {
            e.schedule(1, [&e, &depth] {
                if (++depth < 10)
                    e.schedule(1, [&depth] { ++depth; });
            });
        }
    };
    e.schedule(0, std::move(chain));
    e.run();
    EXPECT_GE(depth, 3);
    EXPECT_TRUE(e.empty());
}

TEST(Engine, ZeroDelayRunsAtSameTime)
{
    Engine e;
    Cycles seen = ~0ull;
    e.schedule(7, [&e, &seen] {
        e.schedule(0, [&e, &seen] { seen = e.now(); });
    });
    e.run();
    EXPECT_EQ(seen, 7u);
}

TEST(Engine, ZeroDelayFromCallbackRunsInSameSweep)
{
    // Delay-0 events scheduled while their bucket drains join its tail —
    // also when the running event was the bucket's last — and all run
    // before anything later.
    Engine e;
    std::vector<std::pair<int, Cycles>> ran;
    const auto note = [&ran, &e](int id) { ran.emplace_back(id, e.now()); };
    e.schedule(5, [&e, note] {
        note(0);
        e.schedule(0, [note] { note(2); });
    });
    e.schedule(5, [&e, note] {
        note(1);
        e.schedule(0, [&e, note] {
            note(3);
            e.schedule(0, [note] { note(4); });
        });
    });
    e.schedule(6, [note] { note(5); });
    e.run();
    EXPECT_EQ(ran, (std::vector<std::pair<int, Cycles>>{
                       {0, 5}, {1, 5}, {2, 5}, {3, 5}, {4, 5}, {5, 6}}));
    EXPECT_EQ(e.processedEvents(), 6u);
}

TEST(Engine, CountsProcessedEvents)
{
    Engine e;
    for (int i = 0; i < 5; ++i)
        e.schedule(i, [] {});
    e.run();
    EXPECT_EQ(e.processedEvents(), 5u);
}

TEST(Engine, FarDelaysCrossWheelLevels)
{
    // One event per wheel level plus the far list, scheduled out of
    // order; they must still run in time order.
    Engine e;
    std::vector<int> order;
    e.schedule(1ull << 31, [&order] { order.push_back(4); }); // far list
    e.schedule(1ull << 21, [&order] { order.push_back(3); }); // level 2
    e.schedule(1ull << 11, [&order] { order.push_back(2); }); // level 1
    e.schedule(1, [&order] { order.push_back(1); });          // level 0
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(e.now(), 1ull << 31);
}

TEST(Engine, TiesBreakInScheduleOrderAcrossLevels)
{
    // Same-time events inserted while the target sits at different wheel
    // levels (far vs direct) must still run in schedule order after
    // cascading.
    Engine e;
    std::vector<int> order;
    const Cycles t = (1ull << 21) + 5; // starts out on level 2
    e.scheduleAt(t, [&order] { order.push_back(0); });
    e.scheduleAt(t, [&order] { order.push_back(1); });
    // An earlier event close to t schedules two more at exactly t once
    // the time wheel has advanced near it (direct level-0 insert).
    e.scheduleAt(t - 1, [&e, &order] {
        e.schedule(1, [&order] { order.push_back(2); });
        e.schedule(1, [&order] { order.push_back(3); });
    });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Engine, SparseTimelineAdvancesMonotonically)
{
    // Events separated by wide empty gaps; now() must hit each exactly.
    Engine e;
    std::vector<Cycles> seen;
    for (const Cycles t :
         {Cycles{3}, Cycles{1500}, Cycles{1u << 20}, Cycles{1u << 22},
          (Cycles{1} << 30) + 17, (Cycles{1} << 41) + 1}) {
        e.scheduleAt(t, [&e, &seen] { seen.push_back(e.now()); });
    }
    e.run();
    EXPECT_EQ(seen,
              (std::vector<Cycles>{3, 1500, 1u << 20, 1u << 22,
                                   (Cycles{1} << 30) + 17,
                                   (Cycles{1} << 41) + 1}));
}

TEST(Engine, InterleavedSchedulingMatchesReferenceOrder)
{
    // Randomized mix of delays spanning all levels, executed once on the
    // wheel and once on a reference (time, seq) sort: identical order.
    Engine e;
    std::vector<int> wheel_order;
    std::vector<std::pair<Cycles, int>> ref;
    std::uint64_t state = 12345;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    };
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t r = next();
        Cycles delay = 0;
        switch (r % 5) {
          case 0: delay = r % 3; break;            // 0..2
          case 1: delay = r % 40; break;           // small
          case 2: delay = 900 + r % 3000; break;   // level 1
          case 3: delay = (1u << 20) + r % 99999; break;
          default: delay = (Cycles{1} << 30) + r % 999; break;
        }
        ref.emplace_back(delay, i);
        e.schedule(delay, [&wheel_order, i] { wheel_order.push_back(i); });
    }
    std::stable_sort(ref.begin(), ref.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });
    e.run();
    ASSERT_EQ(wheel_order.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(wheel_order[i], ref[i].second) << "position " << i;
}

TEST(Engine, ParkedContinuationsKeepFifoOrder)
{
    Engine e;
    std::vector<int> order;
    Engine::WaitList list;
    for (int i = 0; i < 4; ++i)
        e.park(list, [&order, i] { order.push_back(i); });
    EXPECT_TRUE(e.empty()); // parked nodes are not pending events

    // A woken node lands behind the events already in its bucket and
    // ahead of later ones, exactly where schedule() would put it.
    e.schedule(1, [&order] { order.push_back(10); });
    e.wakeFront(list, 1);
    e.schedule(1, [&order] { order.push_back(11); });
    e.run();
    EXPECT_EQ(order, (std::vector<int>{10, 0, 11}));
    EXPECT_EQ(e.processedEvents(), 3u);

    // runAll runs the rest now, in order, without counting events; a
    // continuation parking on the same list waits for the next wake.
    order.clear();
    e.park(list, [&e, &list, &order] {
        order.push_back(4);
        e.park(list, [&order] { order.push_back(5); });
    });
    e.runAll(std::move(list));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(e.processedEvents(), 3u);
    ASSERT_FALSE(list.empty()); // NOLINT(bugprone-use-after-move)
    e.wakeFront(list, 0);
    EXPECT_TRUE(list.empty());
    e.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Engine, PoolStaysBoundedUnderSameCycleBursts)
{
    // A kernel launch drops a 720-event warp-start burst (15 SMs x 6
    // blocks x 8 warps) into one bucket. With a burst at every L0 bucket
    // index, the pool must recycle nodes instead of keeping each
    // bucket's high-water mark: at most one chunk above the peak.
    constexpr std::uint32_t kBurst = 720;
    Engine e;
    std::uint64_t ran = 0;
    for (Cycles t = 0; t < 1024; ++t) {
        for (std::uint32_t i = 0; i < kBurst; ++i)
            e.scheduleAt(t, [&ran] { ++ran; });
        e.run();
    }
    EXPECT_EQ(ran, 1024u * kBurst);
    EXPECT_GE(e.nodeCapacity(), kBurst);
    EXPECT_LE(e.nodeCapacity(), kBurst + Engine::kNodesPerChunk);
}

} // namespace
} // namespace gga
