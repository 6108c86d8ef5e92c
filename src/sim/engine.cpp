#include "sim/engine.hpp"

#include <algorithm>

#include "support/log.hpp"

namespace gga {

void
Engine::schedule(Cycles delay, EventFn fn)
{
    scheduleAt(now_ + delay, fn);
}

void
Engine::scheduleAt(Cycles when, EventFn fn)
{
    GGA_ASSERT(when >= now_, "cannot schedule into the past: ", when,
               " < ", now_);
    place(allocNode(fn, when), when);
    ++pending_;
}

void
Engine::park(WaitList& list, EventFn fn)
{
    append(list, allocNode(fn, 0));
}

void
Engine::wakeFront(WaitList& list, Cycles delay)
{
    GGA_ASSERT(!list.empty(), "wakeFront() on an empty wait list");
    const std::uint32_t n = popFront(list);
    const Cycles when = now_ + delay;
    node(n).time = when;
    place(n, when);
    ++pending_;
}

void
Engine::runAll(WaitList list)
{
    // The list is detached: continuations that park on other lists (or
    // re-register under the same key) cannot extend this sweep. Each node
    // is recycled only after its callback returns.
    std::uint32_t n = list.head_;
    while (n != kNil) {
        Node& nd = node(n);
        const std::uint32_t next = nd.next;
        if (next != kNil)
            prefetch(next);
        nd.fn();
        freeNode(n);
        n = next;
    }
}

std::uint32_t
Engine::allocNode(const EventFn& fn, Cycles time)
{
    if (freeHead_ == kNil)
        grow();
    const std::uint32_t n = freeHead_;
    Node& nd = node(n);
    freeHead_ = nd.next;
    nd.fn = fn;
    nd.time = time;
    return n;
}

void
Engine::freeNode(std::uint32_t n)
{
    node(n).next = freeHead_;
    freeHead_ = n;
}

void
Engine::grow()
{
    GGA_ASSERT(chunks_.size() < (kNil >> kChunkLog), "event pool exhausted");
    const auto base =
        static_cast<std::uint32_t>(chunks_.size() * kNodesPerChunk);
    chunks_.push_back(std::make_unique<Node[]>(kNodesPerChunk));
    // Thread the fresh nodes onto the freelist in index order.
    Node* nodes = chunks_.back().get();
    for (std::uint32_t i = kNodesPerChunk; i-- > 0;) {
        nodes[i].next = freeHead_;
        freeHead_ = base + i;
    }
}

void
Engine::append(WaitList& list, std::uint32_t n)
{
    node(n).next = kNil;
    if (list.tail_ == kNil)
        list.head_ = n;
    else
        node(list.tail_).next = n;
    list.tail_ = n;
}

std::uint32_t
Engine::popFront(WaitList& list)
{
    const std::uint32_t n = list.head_;
    list.head_ = node(n).next;
    if (list.head_ == kNil)
        list.tail_ = kNil;
    return n;
}

void
Engine::place(std::uint32_t n, Cycles when)
{
    // The highest digit (base 1024) in which `when` differs from `now_`
    // picks the wheel level; anything differing above level 2 is far.
    const Cycles delta = when ^ now_;
    if (!(delta >> kLogBuckets))
        pushBucket(0, digit(when, 0), n);
    else if (!(delta >> (2 * kLogBuckets)))
        pushBucket(1, digit(when, 1), n);
    else if (!(delta >> (3 * kLogBuckets)))
        pushBucket(2, digit(when, 2), n);
    else
        append(far_, n);
}

void
Engine::pushBucket(std::uint32_t level, std::size_t idx, std::uint32_t n)
{
    Level& lv = levels_[level];
    WaitList& b = lv.buckets[idx];
    if (b.empty())
        lv.bits[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    append(b, n);
    ++lv.count;
}

void
Engine::run()
{
    while (pending_ > 0) {
        if (levels_[0].count > 0) {
            // All L0 events live in now_'s level-1 block, at digit-0
            // indices >= the current one: the occupancy scan never wraps.
            const std::size_t idx =
                firstSetFrom(levels_[0], digit(now_, 0));
            GGA_ASSERT(idx < kBuckets, "L0 occupancy out of window");
            now_ = (now_ & ~kBucketMask) | static_cast<Cycles>(idx);
            drainBucket(idx);
        } else {
            advance();
        }
    }
}

void
Engine::drainBucket(std::size_t idx)
{
    // A callback may append same-time events to this very bucket (delay
    // 0); they run in this sweep, in schedule order. Nodes never move, so
    // each callback runs in place; its node is recycled only afterwards,
    // so nothing the callback schedules can overwrite it.
    Level& l0 = levels_[0];
    WaitList& bucket = l0.buckets[idx];
    while (!bucket.empty()) {
        const std::uint32_t n = popFront(bucket);
        // Pull in the next node while this callback runs; events the
        // callback adds go to the tail, so the head still runs next.
        if (!bucket.empty())
            prefetch(bucket.head_);
        --pending_;
        --l0.count;
        ++processed_;
        node(n).fn();
        freeNode(n);
    }
    l0.bits[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
}

void
Engine::advance()
{
    while (levels_[0].count == 0) {
        if (levels_[1].count > 0) {
            // Next pending level-1 block; its bucket cascades straight
            // into L0 (every event there shares the new now_'s digit 1).
            const std::size_t idx =
                firstSetFrom(levels_[1], digit(now_, 1) + 1);
            GGA_ASSERT(idx < kBuckets, "L1 occupancy behind now");
            now_ = (now_ & ~((Cycles{1} << (2 * kLogBuckets)) - 1)) |
                   (static_cast<Cycles>(idx) << kLogBuckets);
            cascade(1, idx);
            return;
        }
        if (levels_[2].count > 0) {
            const std::size_t idx =
                firstSetFrom(levels_[2], digit(now_, 2) + 1);
            GGA_ASSERT(idx < kBuckets, "L2 occupancy behind now");
            now_ = (now_ & ~((Cycles{1} << (3 * kLogBuckets)) - 1)) |
                   (static_cast<Cycles>(idx) << (2 * kLogBuckets));
            cascade(2, idx);
            continue; // the bucket landed in L1 and/or L0
        }
        // Only the far list holds events: jump to the earliest one's
        // top-level block and re-file that block's events inward.
        GGA_ASSERT(!far_.empty(), "pending events lost");
        Cycles min_time = node(far_.head_).time;
        for (std::uint32_t n = far_.head_; n != kNil; n = node(n).next)
            min_time = std::min(min_time, node(n).time);
        now_ = min_time & ~((Cycles{1} << (3 * kLogBuckets)) - 1);
        refillFromFar();
    }
}

void
Engine::cascade(std::uint32_t level, std::size_t idx)
{
    // place() re-files each node at a strictly lower level, so the
    // detached source list is never touched while we walk it. FIFO
    // traversal keeps schedule order within every destination bucket.
    Level& lv = levels_[level];
    WaitList b = std::move(lv.buckets[idx]);
    lv.bits[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    for (std::uint32_t n = b.head_; n != kNil;) {
        const std::uint32_t next = node(n).next;
        --lv.count;
        place(n, node(n).time);
        n = next;
    }
}

void
Engine::refillFromFar()
{
    WaitList far = std::move(far_);
    for (std::uint32_t n = far.head_; n != kNil;) {
        const std::uint32_t next = node(n).next;
        place(n, node(n).time); // still-far nodes re-append to far_
        n = next;
    }
}

std::size_t
Engine::firstSetFrom(const Level& lv, std::size_t from) const
{
    if (from >= kBuckets)
        return kBuckets;
    std::size_t w = from >> 6;
    std::uint64_t word = lv.bits[w] & (~std::uint64_t{0} << (from & 63));
    while (true) {
        if (word != 0)
            return (w << 6) +
                   static_cast<std::size_t>(__builtin_ctzll(word));
        if (++w == kBitWords)
            return kBuckets;
        word = lv.bits[w];
    }
}

} // namespace gga
