/**
 * @file
 * Discrete-event simulation engine: a deterministic time-ordered event
 * queue. Ties break by insertion sequence, so identical runs replay
 * identically.
 *
 * Implementation: a hierarchical time wheel instead of a binary min-heap.
 * Simulator delays are dominated by 0/1/small latencies, which a heap
 * pays O(log n) moves per event for; the wheel appends each event to a
 * bucket (O(1)) and pops it with a single unlink. Three wheel levels of
 * 1024 buckets cover deltas below 2^30 cycles (level k buckets span
 * 1024^k cycles); the rare farther event waits in an overflow list.
 *
 * Storage: every pending event is a node in one per-Engine pool. Nodes
 * live in fixed chunks, so their addresses are stable; they are linked
 * into FIFO bucket lists by 32-bit index and recycled LIFO. A callback
 * runs in place in its node, and cascading a bucket relinks nodes rather
 * than moving callbacks. Memory is bounded by the number of live events
 * (the pool is at most one chunk above its peak), not by how many events
 * one bucket ever held. Components park waiting continuations on the
 * same nodes (park / wakeFront / runAll): MSHR waiters and the L1's
 * store-buffer and MSHR retry queues are node lists, not containers of
 * their own.
 *
 * Determinism: each bucket is a FIFO, every insertion into any bucket
 * happens in global schedule order (an event can only bypass a wheel
 * level after that level's bucket for its time block has been cascaded
 * down), and cascades preserve relative order — so same-time events
 * always execute in schedule order, exactly like the (time, seq) heap
 * tie-break this replaces. A woken node is filed exactly as schedule()
 * files a new event. Simulated cycles and MemStats match the heap engine
 * on every app x config (tests/test_determinism.cpp holds the goldens).
 */

#ifndef GGA_SIM_ENGINE_HPP
#define GGA_SIM_ENGINE_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/types.hpp"

namespace gga {

/**
 * Callback type for events: a 48-byte, trivially copyable inline
 * callable. Captures must fit kCapacity bytes and be trivially copyable
 * (pointers, ids, times), so the engine copies, relinks and recycles
 * event nodes without running constructors or destructors.
 */
class EventFn
{
  public:
    static constexpr std::size_t kCapacity = 40;

    EventFn() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventFn> &&
                  std::is_invocable_r_v<void, std::decay_t<F>&>>>
    EventFn(F&& f) // NOLINT: implicit by design, mirrors std::function
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= kCapacity,
                      "capture too large for EventFn");
        static_assert(alignof(Fn) <= alignof(void*),
                      "over-aligned capture in EventFn");
        static_assert(std::is_trivially_copyable_v<Fn> &&
                          std::is_trivially_destructible_v<Fn>,
                      "EventFn captures must be trivially copyable");
        ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
        invoke_ = [](void* s) {
            (*std::launder(reinterpret_cast<Fn*>(s)))();
        };
    }

    void operator()() { invoke_(storage_); }

  private:
    alignas(void*) unsigned char storage_[kCapacity];
    void (*invoke_)(void*) = nullptr;
};

static_assert(sizeof(EventFn) == 48 && std::is_trivially_copyable_v<EventFn>,
              "EventFn must stay a 48-byte trivially copyable value");

/**
 * Hierarchical-time-wheel event queue. All simulator components schedule
 * through one Engine instance, giving a single global time line.
 */
class Engine
{
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};
    static constexpr std::uint32_t kChunkLog = 10;

  public:
    /** Nodes per pool chunk: the pool grows by whole chunks. */
    static constexpr std::uint32_t kNodesPerChunk = 1u << kChunkLog;

    /**
     * FIFO of continuations parked in the engine's node pool. Move-only:
     * a list owns its nodes until they are woken or run.
     */
    class WaitList
    {
      public:
        WaitList() = default;
        WaitList(WaitList&& o) noexcept
            : head_(std::exchange(o.head_, kNil)),
              tail_(std::exchange(o.tail_, kNil))
        {
        }
        WaitList&
        operator=(WaitList&& o) noexcept
        {
            head_ = std::exchange(o.head_, kNil);
            tail_ = std::exchange(o.tail_, kNil);
            return *this;
        }
        WaitList(const WaitList&) = delete;
        WaitList& operator=(const WaitList&) = delete;

        bool empty() const { return head_ == kNil; }

      private:
        friend class Engine;
        std::uint32_t head_ = kNil;
        std::uint32_t tail_ = kNil;
    };

    Engine() = default;
    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /** Current simulated time (GPU cycles). */
    Cycles now() const { return now_; }

    /** Schedule @p fn to run @p delay cycles from now (0 allowed). */
    void schedule(Cycles delay, EventFn fn);

    /** Schedule @p fn at absolute time @p when (must be >= now). */
    void scheduleAt(Cycles when, EventFn fn);

    /** Run until the queue drains. */
    void run();

    /** Number of events executed so far (for perf diagnostics). */
    std::uint64_t processedEvents() const { return processed_; }

    bool empty() const { return pending_ == 0; }

    /** Append @p fn to @p list; it runs only once woken or run. */
    void park(WaitList& list, EventFn fn);

    /**
     * Move the front continuation of the nonempty @p list into the wheel,
     * @p delay cycles from now — filed exactly as schedule() would file
     * it, behind events already in its bucket.
     */
    void wakeFront(WaitList& list, Cycles delay);

    /** Run every continuation of @p list now, in FIFO order. */
    void runAll(WaitList list);

    /** Nodes the pool holds, live or free (bounded-memory diagnostics). */
    std::size_t
    nodeCapacity() const
    {
        return chunks_.size() * kNodesPerChunk;
    }

  private:
    /** log2 of the bucket count per wheel level. */
    static constexpr std::uint32_t kLogBuckets = 10;
    static constexpr std::size_t kBuckets = std::size_t{1} << kLogBuckets;
    static constexpr Cycles kBucketMask = kBuckets - 1;
    /** Wheel levels; deltas >= 2^(3*kLogBuckets) go to the far list. */
    static constexpr std::uint32_t kLevels = 3;
    static constexpr std::size_t kBitWords = kBuckets / 64;

    /** One pooled event (one cache line): a callback and its link. */
    struct alignas(64) Node
    {
        EventFn fn;
        Cycles time = 0;
        std::uint32_t next = kNil;
    };

    struct Level
    {
        std::array<WaitList, kBuckets> buckets;
        /** Occupancy bitmap: bit b set iff buckets[b] is nonempty. */
        std::array<std::uint64_t, kBitWords> bits{};
        std::uint64_t count = 0;
    };

    /** Digit of @p t selecting the level-@p level bucket. */
    static std::size_t
    digit(Cycles t, std::uint32_t level)
    {
        return static_cast<std::size_t>(
            (t >> (level * kLogBuckets)) & kBucketMask);
    }

    Node&
    node(std::uint32_t n)
    {
        return chunks_[n >> kChunkLog][n & (kNodesPerChunk - 1)];
    }

    /** Start loading node @p n's cache line ahead of its callback. */
    void prefetch(std::uint32_t n) { __builtin_prefetch(&node(n)); }

    /** Take a node off the freelist (growing by a chunk when empty). */
    std::uint32_t allocNode(const EventFn& fn, Cycles time);
    void freeNode(std::uint32_t n);
    void grow();
    void append(WaitList& list, std::uint32_t n);
    std::uint32_t popFront(WaitList& list);

    /** File node @p n into the wheel level (or far list) for @p when. */
    void place(std::uint32_t n, Cycles when);
    void pushBucket(std::uint32_t level, std::size_t idx, std::uint32_t n);
    /** Execute every event in the current-time L0 bucket, in FIFO order. */
    void drainBucket(std::size_t idx);
    /** Advance now_ to the next pending event's wheel window. */
    void advance();
    /** Move one level-@p level bucket's nodes down via place(). */
    void cascade(std::uint32_t level, std::size_t idx);
    /** Pull far-list events belonging to now_'s top-level block inward. */
    void refillFromFar();
    /** First nonempty bucket index >= @p from at @p level, or kBuckets. */
    std::size_t firstSetFrom(const Level& lv, std::size_t from) const;

    std::array<Level, kLevels> levels_;
    WaitList far_;
    std::vector<std::unique_ptr<Node[]>> chunks_;
    std::uint32_t freeHead_ = kNil;
    Cycles now_ = 0;
    std::uint64_t pending_ = 0;
    std::uint64_t processed_ = 0;
};

} // namespace gga

#endif // GGA_SIM_ENGINE_HPP
