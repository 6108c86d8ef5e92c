#include "sim/l1.hpp"

#include "support/log.hpp"

namespace gga {

L1Controller::L1Controller(Engine& engine, std::uint32_t size_kib,
                           CoherenceKind coh, std::uint32_t sm_id,
                           L2System& l2)
    : engine_(engine),
      coh_(coh),
      smId_(sm_id),
      l2_(l2),
      tags_(size_kib * 1024, SimParams::l1Assoc),
      mshr_(engine, SimParams::l1Mshrs),
      sb_(SimParams::storeBufferEntries)
{
}

void
L1Controller::retire(Pending* req)
{
    // Copy the continuation out before recycling: done() may start a new
    // request that reuses this very block.
    EventFn done = req->done;
    pendingPool_.destroy(req);
    done();
}

void
L1Controller::finishOne(Pending* req)
{
    GGA_ASSERT(req->remaining > 0, "pending request underflow");
    if (--req->remaining == 0)
        engine_.schedule(0, [this, req] { retire(req); });
}

void
L1Controller::insertLine(Addr line, LineState st)
{
    const SetAssocCache::Probe p = tags_.probe(line);
    if (p.way != SetAssocCache::kNoWay) {
        // Upgrade in place (e.g. Valid -> Owned after a GetO).
        if (st == LineState::Owned)
            tags_.setStateAt(p.way, st);
        return;
    }
    allocateLine(p, line, st);
}

void
L1Controller::allocateLine(const SetAssocCache::Probe& p, Addr line,
                           LineState st)
{
    const SetAssocCache::Eviction ev = tags_.insertAt(p, line, st);
    if (ev.state == LineState::Dirty) {
        // GPU write-combining victim: write through in the background.
        l2_.write(smId_, ev.line, [] {});
    } else if (ev.state == LineState::Owned) {
        l2_.releaseOwnership(smId_, ev.line);
    }
}

void
L1Controller::fillLine(Addr line, LineState st)
{
    insertLine(line, st);
    engine_.runAll(mshr_.complete(line));
    pumpMshrWaiters();
}

bool
L1Controller::drained() const
{
    return sb_.empty() && pendingStoreFills_ == 0;
}

void
L1Controller::maybeNotifyDrain()
{
    if (drainWaiters_.empty() || !drained())
        return;
    // finishOne only schedules the continuation, so no new flush can be
    // registered while this loop runs.
    for (Pending* req : drainWaiters_)
        finishOne(req);
    drainWaiters_.clear();
}

void
L1Controller::releaseSb()
{
    sb_.release();
    pumpSbWaiters();
    maybeNotifyDrain();
}

void
L1Controller::pumpSbWaiters()
{
    // Wake as many stalled continuations as there are free entries. A
    // woken continuation that consumes no entry (e.g. the line became
    // owned meanwhile) simply proceeds; one that still cannot proceed
    // re-queues itself — at that point the buffer is full again, so a
    // future release is guaranteed to pump it.
    std::uint32_t budget = sb_.freeEntries();
    while (budget-- > 0 && !sbWaiters_.empty())
        engine_.wakeFront(sbWaiters_, 1);
}

void
L1Controller::pumpMshrWaiters()
{
    std::uint32_t budget = static_cast<std::uint32_t>(
        mshr_.full() ? 0 : SimParams::l1Mshrs - mshr_.inFlight());
    while (budget-- > 0 && !mshrWaiters_.empty())
        engine_.wakeFront(mshrWaiters_, 1);
}

void
L1Controller::startLoadFill(Addr line, Pending* req)
{
    const MshrAdd r = mshr_.addWaiter(
        line, FillKind::Data, [this, req] { finishOne(req); });
    switch (r) {
      case MshrAdd::NewEntry:
        l2_.read(smId_, line,
                 [this, line] { fillLine(line, LineState::Valid); });
        break;
      case MshrAdd::Merged:
        break;
      case MshrAdd::Conflict:
        GGA_PANIC("data fill cannot conflict");
    }
}

void
L1Controller::retryLoadLine(Addr line, Pending* req)
{
    // The line may have been filled while we waited.
    if (tags_.lookup(line) != LineState::Invalid) {
        ++stats_.loadHits;
        finishOne(req);
        return;
    }
    if (mshr_.full() && !mshr_.isPending(line)) {
        ++stats_.retries;
        engine_.park(
            mshrWaiters_, [this, line, req] { retryLoadLine(line, req); });
        return;
    }
    startLoadFill(line, req);
}

void
L1Controller::load(const Addr* lines, std::uint32_t count, EventFn done)
{
    // +1 guard until the loop ends
    Pending* req = pendingPool_.create(Pending{1, done});
    for (std::uint32_t i = 0; i < count; ++i) {
        const Addr line = lines[i];
        if (tags_.lookup(line) != LineState::Invalid) {
            ++stats_.loadHits;
            continue;
        }
        ++stats_.loadMisses;
        ++req->remaining;
        if (mshr_.full() && !mshr_.isPending(line)) {
            // Table full: wait for an entry to free up.
            ++stats_.retries;
            engine_.park(
                mshrWaiters_, [this, line, req] { retryLoadLine(line, req); });
        } else {
            startLoadFill(line, req);
        }
    }
    if (req->remaining == 1) {
        // Everything hit: complete after the L1 hit latency.
        req->remaining = 0; // ownership moves to the scheduled event
        engine_.schedule(SimParams::l1HitLatency,
                         [this, req] { retire(req); });
    } else {
        finishOne(req);
    }
}

void
L1Controller::store(const Addr* lines, std::uint32_t count, EventFn done)
{
    ++stats_.stores;
    Pending* req = pendingPool_.create(Pending{1, done});
    stepStore(lines, count, 0, req);
}

void
L1Controller::stepStore(const Addr* lines, std::uint32_t count,
                        std::uint32_t idx, Pending* req)
{
    while (idx < count) {
        const Addr line = lines[idx];
        if (coh_ == CoherenceKind::Gpu) {
            // Write-combining: mark/allocate dirty, no fetch, no stall.
            const SetAssocCache::Probe p = tags_.probe(line);
            if (p.way != SetAssocCache::kNoWay)
                tags_.setStateAt(p.way, LineState::Dirty);
            else
                allocateLine(p, line, LineState::Dirty);
            ++idx;
            continue;
        }
        // DeNovo: need ownership.
        const LineState st = tags_.lookup(line);
        if (st == LineState::Owned) {
            ++idx;
            continue;
        }
        if (sb_.full()) {
            ++stats_.retries;
            engine_.park(sbWaiters_, [this, lines, count, idx, req] {
                stepStore(lines, count, idx, req);
            });
            return;
        }
        if (mshr_.full() && !mshr_.isPending(line)) {
            ++stats_.retries;
            engine_.park(mshrWaiters_, [this, lines, count, idx, req] {
                stepStore(lines, count, idx, req);
            });
            return;
        }
        const MshrAdd r = mshr_.addWaiter(line, FillKind::Ownership, [] {});
        if (r == MshrAdd::Conflict) {
            // A plain data fill is in flight; retry once it lands.
            ++stats_.retries;
            mshr_.addRetryOnFill(line, [this, lines, count, idx, req] {
                stepStore(lines, count, idx, req);
            });
            return;
        }
        if (r == MshrAdd::NewEntry) {
            ++stats_.ownershipRequests;
            sb_.acquire();
            ++pendingStoreFills_;
            l2_.getOwnership(smId_, line, [this, line] {
                // Decrement before releaseSb so its drain check sees the
                // fully updated state.
                --pendingStoreFills_;
                releaseSb();
                fillLine(line, LineState::Owned);
            });
        }
        ++idx;
    }
    // Acceptance: the warp resumes next cycle; fills complete in background.
    engine_.schedule(1, [this, req] { retire(req); });
}

void
L1Controller::atomic(const Addr* words, std::uint32_t count, EventFn done)
{
    Pending* req = pendingPool_.create(Pending{count, done});
    for (std::uint32_t i = 0; i < count; ++i) {
        if (coh_ == CoherenceKind::Gpu)
            stepGpuAtomic(words[i], req);
        else
            stepDeNovoAtomic(words[i], req);
    }
}

void
L1Controller::stepGpuAtomic(Addr word, Pending* req)
{
    // Atomics bypass the L1; an SB entry models the outstanding slot.
    if (sb_.full()) {
        ++stats_.retries;
        engine_.park(
            sbWaiters_, [this, word, req] { stepGpuAtomic(word, req); });
        return;
    }
    sb_.acquire();
    ++stats_.l2AtomicsSent;
    l2_.atomic(smId_, word, [this, req] {
        releaseSb();
        finishOne(req);
    });
}

void
L1Controller::stepDeNovoAtomic(Addr word, Pending* req)
{
    const Addr line = lineOf(word);
    if (tags_.lookup(line) == LineState::Owned) {
        ++stats_.atomicL1Hits;
        // Local execution. The atomic unit retires one word per service
        // interval (its pipeline is the throughput limit of owned
        // atomics), and same-word atomics additionally serialize.
        const Cycles unit_start = std::max(engine_.now(), atomicUnitFree_);
        atomicUnitFree_ = unit_start + SimParams::l1AtomicServiceInterval;
        Cycles& word_free = l1WordFree_[word];
        const Cycles start =
            std::max(unit_start + SimParams::l1AtomicLatency, word_free);
        word_free = start + SimParams::l1AtomicServiceInterval;
        engine_.scheduleAt(start + SimParams::l1AtomicServiceInterval,
                           [this, req] { finishOne(req); });
        return;
    }
    if (sb_.full()) {
        ++stats_.retries;
        engine_.park(
            sbWaiters_, [this, word, req] { stepDeNovoAtomic(word, req); });
        return;
    }
    if (mshr_.full() && !mshr_.isPending(line)) {
        ++stats_.retries;
        engine_.park(
            mshrWaiters_, [this, word, req] { stepDeNovoAtomic(word, req); });
        return;
    }
    const MshrAdd r = mshr_.addWaiter(
        line, FillKind::Ownership,
        [this, word, req] { stepDeNovoAtomic(word, req); });
    if (r == MshrAdd::Conflict) {
        ++stats_.retries;
        mshr_.addRetryOnFill(
            line, [this, word, req] { stepDeNovoAtomic(word, req); });
        return;
    }
    if (r == MshrAdd::NewEntry) {
        ++stats_.ownershipRequests;
        sb_.acquire();
        l2_.getOwnership(smId_, line, [this, line] {
            releaseSb();
            fillLine(line, LineState::Owned);
        });
    }
}

void
L1Controller::acquireInvalidate(EventFn done)
{
    const bool keep_owned = coh_ == CoherenceKind::DeNovo;
    stats_.acquireInvalidatedLines += tags_.invalidateForAcquire(keep_owned);
    engine_.schedule(SimParams::flashInvalidateLatency, done);
}

void
L1Controller::releaseFlush(EventFn done)
{
    Pending* req = pendingPool_.create(Pending{1, done});
    if (coh_ == CoherenceKind::Gpu) {
        flushScratch_.clear();
        tags_.collectLines(LineState::Dirty, flushScratch_);
        stats_.flushedLines += flushScratch_.size();
        tags_.cleanDirty();
        req->remaining += static_cast<std::uint32_t>(flushScratch_.size());
        for (Addr line : flushScratch_)
            l2_.write(smId_, line, [this, req] { finishOne(req); });
    }
    // Drop the guard when outstanding stores/atomics have drained: either
    // right away, or when the last release/fill notifies the waiter list.
    if (drained())
        finishOne(req);
    else
        drainWaiters_.push_back(req);
}

void
L1Controller::onRecall(Addr line)
{
    ++stats_.recalls;
    tags_.invalidate(line);
}

void
L1Controller::beginKernel()
{
    GGA_ASSERT(drainWaiters_.empty(), "release flush pending across kernels");
    l1WordFree_.clear();
    atomicUnitFree_ = 0;
}

} // namespace gga
